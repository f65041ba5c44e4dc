module Config_set = Conftree.Config_set
module Node = Conftree.Node

let forward_origin = "example.com."
let reverse_origin = "0.0.10.in-addr.arpa."
let forward_zone_file = "example.com.zone"
let reverse_zone_file = "0.0.10.in-addr.arpa.zone"

let zones = [ (forward_zone_file, forward_origin); (reverse_zone_file, reverse_origin) ]

let forward_zone_text =
  String.concat "\n"
    [
      "$TTL 86400";
      "; forward zone for example.com";
      "@\tIN\tSOA\tns1.example.com. hostmaster.example.com. ( 2008060101 10800 3600 \
       604800 86400 )";
      "@\tIN\tNS\tns1.example.com.";
      "ns1\tIN\tA\t10.0.0.1";
      "www\tIN\tA\t10.0.0.2";
      "mail\tIN\tA\t10.0.0.3";
      "host1\tIN\tA\t10.0.0.4";
      "host2\tIN\tA\t10.0.0.5";
      "@\tIN\tMX\t10 mail.example.com.";
      "@\tIN\tTXT\t\"v=spf1 mx -all\"";
      "@\tIN\tRP\thostmaster.example.com. contact.example.com.";
      "host1\tIN\tHINFO\t\"PC\" \"Linux\"";
      "host2\tIN\tHINFO\t\"PC\" \"FreeBSD\"";
      "contact\tIN\tTXT\t\"ops team, +41 21 000 00 00\"";
      "ftp\tIN\tCNAME\twww.example.com.";
      "webmail\tIN\tCNAME\tmail.example.com.";
      "";
    ]

let reverse_zone_text =
  String.concat "\n"
    [
      "$TTL 86400";
      "; reverse zone for 10.0.0.0/24";
      "@\tIN\tSOA\tns1.example.com. hostmaster.example.com. ( 2008060101 10800 3600 \
       604800 86400 )";
      "@\tIN\tNS\tns1.example.com.";
      "1\tIN\tPTR\tns1.example.com.";
      "2\tIN\tPTR\twww.example.com.";
      "3\tIN\tPTR\tmail.example.com.";
      "4\tIN\tPTR\thost1.example.com.";
      "5\tIN\tPTR\thost2.example.com.";
      "";
    ]

let named_conf_text =
  String.concat "\n"
    [
      "// named.conf";
      "options {";
      "  directory \"/var/named\";";
      "  recursion no;";
      "  listen-on port 53;";
      "};";
      "zone \"example.com\" IN {";
      "  type master;";
      "  file \"example.com.zone\";";
      "};";
      "zone \"0.0.10.in-addr.arpa\" IN {";
      "  type master;";
      "  file \"0.0.10.in-addr.arpa.zone\";";
      "};";
      "";
    ]

let existing_directories = [ "/var/named"; "/etc/named" ]

let known_zone_types = [ "master"; "slave"; "hint"; "forward" ]

type zone_decl = { zone_file : string; origin : string; file_site : Conftree.Path.t }

let unquote v =
  let v = Conferr_util.Strutil.trim v in
  if String.length v >= 2 && v.[0] = '"' && v.[String.length v - 1] = '"' then
    String.sub v 1 (String.length v - 2)
  else v

(* named.conf processing: named's own reader, with its own checks. *)
let read_named_conf (report : Sut.report) (tree : Node.t) =
  let problem ?suggestion path message =
    report { Sut.file = "named.conf"; path; message; suggestion }
  in
  let check_options i (section : Node.t) =
    List.iteri
      (fun j (d : Node.t) ->
        if d.kind = Node.kind_directive then
          match (String.lowercase_ascii d.name, d.value) with
          | "directory", Some dir when List.mem (unquote dir) existing_directories -> ()
          | "directory", Some dir ->
            problem [ i; j ] (Printf.sprintf "named.conf: directory %s not found" dir)
          | "recursion", Some ("yes" | "no") -> ()
          | "recursion", Some other ->
            problem [ i; j ]
              (Printf.sprintf "named.conf: recursion must be yes or no, got %s" other)
          | ("listen-on" | "allow-query" | "forwarders" | "version"), _ -> ()
          | other, _ ->
            problem [ i; j ] (Printf.sprintf "named.conf: unknown option '%s'" other))
      section.children
  in
  let read_zone i (section : Node.t) =
    let origin =
      Dnsmodel.Name.normalize (Option.value ~default:"" (Node.attr section "arg"))
    in
    let find name =
      let rec go j = function
        | [] -> None
        | (d : Node.t) :: rest ->
          if d.kind = Node.kind_directive && String.lowercase_ascii d.name = name then
            Some (j, Node.value_or ~default:"" d)
          else go (j + 1) rest
      in
      go 0 section.children
    in
    (match find "type" with
     | Some (_, t) when List.mem t known_zone_types -> ()
     | Some (j, t) ->
       problem [ i; j ] (Printf.sprintf "zone %s: unknown type '%s'" origin t)
     | None -> problem [ i ] (Printf.sprintf "zone %s: missing 'type'" origin));
    match find "file" with
    | Some (j, f) -> [ { zone_file = unquote f; origin; file_site = [ i; j ] } ]
    | None ->
      problem [ i ] (Printf.sprintf "zone %s: missing 'file'" origin);
      []
  in
  List.concat
    (List.mapi
       (fun i (n : Node.t) ->
         if n.kind <> Node.kind_section then []
         else
           match String.lowercase_ascii n.name with
           | "options" ->
             check_options i n;
             []
           | "zone" -> read_zone i n
           | other ->
             problem [ i ]
               ?suggestion:
                 (if List.mem other [ "option"; "zones"; "optons" ] then Some "options"
                  else None)
               (Printf.sprintf "named.conf: unknown block '%s'" other);
             [])
       tree.children)

(* a typo in a zone's file path is a startup failure *)
let check_zone_files (report : Sut.report) ~exists decls =
  List.iter
    (fun d ->
      if not (exists d.zone_file) then
        report
          {
            Sut.file = "named.conf";
            path = d.file_site;
            message =
              Printf.sprintf "zone %s: loading from master file %s failed: file not found"
                d.origin d.zone_file;
            suggestion = None;
          })
    decls

let load_zones ~zones configs =
  (* named's zone loader: parse each master file, build the zone, run the
     consistency checks BIND performs at load time. *)
  let parse (file, _origin) =
    match List.assoc_opt file configs with
    | None -> Error (Printf.sprintf "zone file %s missing" file)
    | Some text ->
      (match Formats.Bindzone.parse text with
       | Error e ->
         Error
           (Printf.sprintf "dns_master_load: %s: %s" file
              (Formats.Parse_error.to_string e))
       | Ok tree -> Ok (file, tree))
  in
  let rec parse_all acc = function
    | [] -> Ok (List.rev acc)
    | z :: rest ->
      (match parse z with
       | Error e -> Error e
       | Ok parsed -> parse_all (parsed :: acc) rest)
  in
  match parse_all [] zones with
  | Error e -> Error e
  | Ok parsed ->
    let set = Config_set.of_list parsed in
    (match (Dnsmodel.Codec.bind ~zones).Dnsmodel.Codec.decode set with
     | Error msg -> Error (Printf.sprintf "dns_master_load: %s" msg)
     | Ok records ->
       let zone_of (file, origin) =
         Dnsmodel.Zone.make ~origin
           (List.filter
              (fun r -> Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file = Some file)
              records)
       in
       let built = List.map zone_of zones in
       let problems =
         List.concat_map
           (fun z ->
             List.map
               (fun p -> (z.Dnsmodel.Zone.origin, p))
               (Dnsmodel.Zone.validate z))
           built
       in
       (* BIND refuses the zone on these; it has no forward/reverse
          cross-checks, so missing PTRs sail through. *)
       (match problems with
        | (origin, p) :: _ ->
          Error
            (Format.asprintf "zone %s: %a: not loaded due to errors" origin
               Dnsmodel.Zone.pp_problem p)
        | [] -> Ok built))

let functional_tests resolver () =
  let apex_answers origin =
    match Dnsmodel.Resolver.query resolver ~name:origin ~rtype:"SOA" with
    | Dnsmodel.Resolver.Answer _ -> true
    | _ -> false
  in
  let forward =
    if apex_answers forward_origin then Sut.passed "dns-forward"
    else Sut.failed "dns-forward" "no answer for the forward zone apex"
  in
  let reverse =
    if apex_answers reverse_origin then Sut.passed "dns-reverse"
    else Sut.failed "dns-reverse" "no answer for the reverse zone apex"
  in
  [ forward; reverse ]

let boot configs =
  match List.assoc_opt "named.conf" configs with
  | None -> Error "named.conf not found"
  | Some conf_text ->
    (match Formats.Namedconf.parse conf_text with
     | Error e -> Error (Printf.sprintf "named.conf: %s" (Formats.Parse_error.to_string e))
     | Ok tree ->
       let ( let* ) = Result.bind in
       let* decls = Sut.first_problem (fun report -> read_named_conf report tree) in
       let* () =
         Sut.first_problem (fun report ->
             check_zone_files report ~exists:(fun f -> List.mem_assoc f configs) decls)
       in
       let* built =
         load_zones ~zones:(List.map (fun d -> (d.zone_file, d.origin)) decls) configs
       in
       let resolver = Dnsmodel.Resolver.create built in
       Ok { Sut.run_tests = functional_tests resolver; shutdown = (fun () -> ()) })

let sut =
  {
    Sut.sut_name = "bind";
    version = "ISC BIND 9.4.2 (simulated)";
    config_files =
      [
        ("named.conf", Formats.Registry.namedconf);
        (forward_zone_file, Formats.Registry.bindzone);
        (reverse_zone_file, Formats.Registry.bindzone);
      ];
    default_config =
      [
        ("named.conf", named_conf_text);
        (forward_zone_file, forward_zone_text);
        (reverse_zone_file, reverse_zone_text);
      ];
    boot;
  }
