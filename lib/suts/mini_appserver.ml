module Node = Conftree.Node

let known_elements = [ "server"; "connector"; "logger"; "host"; "realm" ]

let existing_dirs = [ "/srv/webapps"; "/var/log/appserver"; "/etc/appserver" ]

let existing_files = [ "/etc/appserver/users.xml" ]

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

type state = {
  mutable connector_ports : int list;
  mutable first_connector : Conftree.Path.t option;
  mutable app_base : string;
  mutable default_app : string;
  mutable host_at : Conftree.Path.t option;
}

let check (report : Sut.report) (root : Node.t) =
  let state =
    {
      connector_ports = [];
      first_connector = None;
      app_base = "";
      default_app = "";
      host_at = None;
    }
  in
  let problem rpath fmt =
    Printf.ksprintf
      (fun message ->
        report
          { Sut.file = "server.xml"; path = List.rev rpath; message; suggestion = None })
      fmt
  in
  let check_attrs rpath ~element ~allowed (n : Node.t) =
    List.iter
      (fun (key, _) ->
        if not (List.mem key allowed) then
          problem rpath "element <%s> has no attribute %S" element key)
      n.attrs
  in
  let rec walk rpath (n : Node.t) =
    List.iteri
      (fun i (c : Node.t) -> if c.kind = Node.kind_element then element (i :: rpath) c)
      n.children
  and element rpath (n : Node.t) =
    match String.lowercase_ascii n.name with
    | "server" ->
      check_attrs rpath ~element:"server" ~allowed:[ "shutdownPort"; "name" ] n;
      walk rpath n
    | "connector" ->
      check_attrs rpath ~element:"connector" ~allowed:[ "protocol"; "port"; "timeout" ] n;
      (match Node.attr n "protocol" with
       | None | Some ("http" | "https" | "ajp") -> ()
       | Some other -> problem rpath "unknown connector protocol %S" other);
      (match Node.attr n "timeout" with
       | None -> ()
       | Some t when is_digits t -> ()
       | Some t -> problem rpath "invalid connector timeout %S" t);
      if state.first_connector = None then state.first_connector <- Some (List.rev rpath);
      (match Node.attr n "port" with
       | None -> ()
       | Some p ->
         (match if is_digits p then int_of_string_opt p else None with
          | Some port when port >= 1 && port <= 65535 ->
            state.connector_ports <- state.connector_ports @ [ port ]
          | Some port -> problem rpath "port %d out of range" port
          | None -> problem rpath "invalid port %S" p))
    | "logger" ->
      check_attrs rpath ~element:"logger" ~allowed:[ "level"; "file" ] n;
      (match Node.attr n "level" with
       | None | Some ("debug" | "info" | "warn" | "error") -> ()
       | Some other -> problem rpath "unknown log level %S" other);
      (match Node.attr n "file" with
       | None -> ()
       | Some f ->
         let dir =
           match String.rindex_opt f '/' with
           | Some 0 -> "/"
           | Some i -> String.sub f 0 i
           | None -> "."
         in
         if not (List.mem dir existing_dirs) then problem rpath "cannot open log file %S" f)
    | "host" ->
      check_attrs rpath ~element:"host" ~allowed:[ "name"; "appBase"; "defaultApp" ] n;
      state.host_at <- Some (List.rev rpath);
      Option.iter (fun base -> state.app_base <- base) (Node.attr n "appBase");
      Option.iter (fun app -> state.default_app <- app) (Node.attr n "defaultApp");
      walk rpath n
    | "realm" ->
      check_attrs rpath ~element:"realm" ~allowed:[ "users" ] n;
      (match Node.attr n "users" with
       | None -> ()
       | Some f when List.mem f existing_files -> ()
       | Some f -> problem rpath "realm user database %S not found" f)
    | _ ->
      (* The XML-config flaw: an element this server does not know is
         skipped without a diagnostic — a typo in an element name makes
         the whole subtree silently disappear. *)
      ()
  in
  walk [] root;
  state

let connected state =
  if state.connector_ports = [] then Error "no connectors configured" else Ok ()

let functional_tests state () =
  let expected_port = 8080 in
  if not (List.mem expected_port state.connector_ports) then
    [
      Sut.failed "http-get"
        (Printf.sprintf "connection refused on %d (connectors: %s)" expected_port
           (String.concat "," (List.map string_of_int state.connector_ports)));
    ]
  else if state.app_base <> "/srv/webapps" then
    [ Sut.failed "http-get" (Printf.sprintf "404: appBase %S has no apps" state.app_base) ]
  else if state.default_app = "" then
    [ Sut.failed "http-get" "404: no default application deployed" ]
  else [ Sut.passed "http-get" ]

let boot configs =
  match List.assoc_opt "server.xml" configs with
  | None -> Error "server.xml not found"
  | Some text ->
    (match Formats.Xmlconf.parse text with
     | Error e ->
       Error (Printf.sprintf "XML parse error: %s" (Formats.Parse_error.to_string e))
     | Ok tree ->
       let ( let* ) = Result.bind in
       let* state = Sut.first_problem (fun report -> check report tree) in
       let* () = connected state in
       Ok { Sut.run_tests = functional_tests state; shutdown = (fun () -> ()) })

let default_config =
  String.concat "\n"
    [
      "<?xml version=\"1.0\"?>";
      "<server name=\"appserver\" shutdownPort=\"8005\">";
      "  <connector protocol=\"http\" port=\"8080\" timeout=\"30\"/>";
      "  <connector protocol=\"https\" port=\"8443\"/>";
      "  <logger level=\"info\" file=\"/var/log/appserver/server.log\"/>";
      "  <host name=\"localhost\" appBase=\"/srv/webapps\" defaultApp=\"root\">";
      "    <realm users=\"/etc/appserver/users.xml\"/>";
      "  </host>";
      "</server>";
      "";
    ]

let sut =
  {
    Sut.sut_name = "appserver";
    version = "XML application server (simulated)";
    config_files = [ ("server.xml", Formats.Registry.xmlconf) ];
    default_config = [ ("server.xml", default_config) ];
    boot;
  }
