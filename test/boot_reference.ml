(* Reference implementations for test_boot_oracle.ml, kept verbatim as
   they were written before the name maps and the index scans: the
   simulated Apache's startup checks, the httpd.conf parser and the BIND
   zone parser, and named's boot over that zone parser.  The httpd.conf
   parser carries one change: a tab ends a section tag's name, as a
   space does. *)

module Sut = Suts.Sut
module Node = Conftree.Node
module Strutil = Conferr_util.Strutil
module Parse_error = Formats.Parse_error

module Apache = struct
  (* ------------------------------------------------------------------ *)
  (* Module registry: module identifier -> canonical shared-object path   *)
  (* ------------------------------------------------------------------ *)

  let modules =
    [
      ("authz_host_module", "modules/mod_authz_host.so");
      ("auth_basic_module", "modules/mod_auth_basic.so");
      ("authn_file_module", "modules/mod_authn_file.so");
      ("include_module", "modules/mod_include.so");
      ("log_config_module", "modules/mod_log_config.so");
      ("env_module", "modules/mod_env.so");
      ("expires_module", "modules/mod_expires.so");
      ("headers_module", "modules/mod_headers.so");
      ("setenvif_module", "modules/mod_setenvif.so");
      ("mime_module", "modules/mod_mime.so");
      ("status_module", "modules/mod_status.so");
      ("autoindex_module", "modules/mod_autoindex.so");
      ("info_module", "modules/mod_info.so");
      ("dir_module", "modules/mod_dir.so");
      ("alias_module", "modules/mod_alias.so");
      ("rewrite_module", "modules/mod_rewrite.so");
      ("negotiation_module", "modules/mod_negotiation.so");
      ("userdir_module", "modules/mod_userdir.so");
      ("actions_module", "modules/mod_actions.so");
      ("speling_module", "modules/mod_speling.so");
      ("vhost_alias_module", "modules/mod_vhost_alias.so");
      ("deflate_module", "modules/mod_deflate.so");
      ("cgi_module", "modules/mod_cgi.so");
      ("dav_module", "modules/mod_dav.so");
      ("dav_fs_module", "modules/mod_dav_fs.so");
      ("proxy_module", "modules/mod_proxy.so");
      ("proxy_http_module", "modules/mod_proxy_http.so");
      ("ssl_module", "modules/mod_ssl.so");
      ("cache_module", "modules/mod_cache.so");
      ("disk_cache_module", "modules/mod_disk_cache.so");
    ]

  let known_module name = List.mem_assoc name modules

  (* Which module provides each non-core directive. *)
  let directive_modules =
    [
      ("order", "authz_host_module");
      ("allow", "authz_host_module");
      ("deny", "authz_host_module");
      ("authtype", "auth_basic_module");
      ("authname", "auth_basic_module");
      ("authuserfile", "authn_file_module");
      ("customlog", "log_config_module");
      ("logformat", "log_config_module");
      ("setenv", "env_module");
      ("expiresactive", "expires_module");
      ("header", "headers_module");
      ("setenvif", "setenvif_module");
      ("browsermatch", "setenvif_module");
      ("addtype", "mime_module");
      ("addencoding", "mime_module");
      ("addhandler", "mime_module");
      ("typesconfig", "mime_module");
      ("extendedstatus", "status_module");
      ("indexoptions", "autoindex_module");
      ("addicon", "autoindex_module");
      ("addiconbytype", "autoindex_module");
      ("defaulticon", "autoindex_module");
      ("readmename", "autoindex_module");
      ("headername", "autoindex_module");
      ("addinfo", "info_module");
      ("directoryindex", "dir_module");
      ("alias", "alias_module");
      ("scriptalias", "alias_module");
      ("redirect", "alias_module");
      ("rewriteengine", "rewrite_module");
      ("rewriterule", "rewrite_module");
      ("languagepriority", "negotiation_module");
      ("addlanguage", "negotiation_module");
      ("forcelanguagepriority", "negotiation_module");
      ("userdir", "userdir_module");
      ("action", "actions_module");
      ("checkspelling", "speling_module");
      ("deflatecompressionlevel", "deflate_module");
      ("scriptsock", "cgi_module");
      ("davlockdb", "dav_fs_module");
      ("proxyrequests", "proxy_module");
      ("sslengine", "ssl_module");
      ("sslcertificatefile", "ssl_module");
      ("cacheenable", "cache_module");
      ("cacheroot", "disk_cache_module");
    ]

  let directive_module name =
    List.assoc_opt (String.lowercase_ascii name) directive_modules

  (* Core directives: name -> value validator.  Most accept anything —
     the laxity the paper criticizes. *)

  let existing_dirs =
    [ "/etc/httpd"; "/var/www/html"; "/var/www/cgi-bin"; "/var/www/error";
      "/var/www/icons"; "/var/log/httpd"; "/var/run"; "/home" ]

  let existing_files = [ "/etc/mime.types"; "/etc/httpd/conf/magic" ]

  let known_users = [ "apache"; "www-data"; "daemon"; "nobody" ]

  let known_groups = known_users

  let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

  let parse_port s =
    (* "80" or "1.2.3.4:80" or "[::]:80" *)
    let port_text =
      match String.rindex_opt s ':' with
      | Some i -> String.sub s (i + 1) (String.length s - i - 1)
      | None -> s
    in
    match if is_digits port_text then int_of_string_opt port_text else None with
    | Some p when p >= 1 && p <= 65535 -> Ok p
    | Some p -> Error (Printf.sprintf "port %d is out of range" p)
    | None -> Error (Printf.sprintf "Invalid port in %S" s)

  let dir_of_path p =
    match String.rindex_opt p '/' with
    | Some 0 -> "/"
    | Some i -> String.sub p 0 i
    | None -> "."

  type validator =
    | Anything                 (* the flaw: freeform strings accepted *)
    | Number
    | On_off
    | On_off_or of string list
    | Enum of string list
    | Port_list
    | Existing_dir
    | Log_path                 (* parent directory must exist; '|' pipes ok *)
    | Existing_file
    | User_name
    | Group_name
    | Options_list
    | Override_list
    | Order_arg
    | From_list
    | Min_args of int

  let core_directives =
    [
      ("serverroot", Existing_dir);
      ("listen", Port_list);
      ("user", User_name);
      ("group", Group_name);
      ("serveradmin", Anything) (* flaw: should be a URL or email address *);
      ("servername", Anything) (* flaw: should be a DNS host name *);
      ("usecanonicalname", On_off_or [ "dns" ]);
      ("documentroot", Anything) (* checked at request time, not startup *);
      ("errorlog", Log_path);
      ("loglevel", Enum [ "debug"; "info"; "notice"; "warn"; "error"; "crit"; "alert"; "emerg" ]);
      ("pidfile", Log_path);
      ("timeout", Number);
      ("keepalive", On_off);
      ("maxkeepaliverequests", Number);
      ("keepalivetimeout", Number);
      ("startservers", Number);
      ("minspareservers", Number);
      ("maxspareservers", Number);
      ("serverlimit", Number);
      ("maxclients", Number);
      ("maxrequestsperchild", Number);
      ("defaulttype", Anything) (* flaw: should be type/subtype per RFC 2045 *);
      ("hostnamelookups", On_off_or [ "double" ]);
      ("servertokens", Enum [ "prod"; "major"; "minor"; "min"; "os"; "full" ]);
      ("serversignature", On_off_or [ "email" ]);
      ("adddefaultcharset", Anything);
      ("enablemmap", On_off);
      ("enablesendfile", On_off);
      ("accessfilename", Anything);
      ("namevirtualhost", Port_list);
      ("options", Options_list);
      ("allowoverride", Override_list);
      ("errordocument", Min_args 2);
      ("include", Existing_file);
      ("traceenable", On_off_or [ "extended" ]);
    ]

  let option_tokens =
    [ "indexes"; "includes"; "followsymlinks"; "symlinksifownermatch"; "execcgi";
      "multiviews"; "none"; "all" ]

  let override_tokens =
    [ "authconfig"; "fileinfo"; "indexes"; "limit"; "options"; "none"; "all" ]

  (* Directives owned by loadable modules still need their values checked
     once the module is present. *)
  let module_directive_validators =
    [
      ("order", Order_arg);
      ("allow", From_list);
      ("deny", From_list);
      ("customlog", Min_args 2);
      ("logformat", Min_args 1);
      ("addtype", Min_args 2) (* flaw: the type itself is not validated *);
      ("addencoding", Min_args 2);
      ("addhandler", Min_args 2);
      ("typesconfig", Existing_file);
      ("extendedstatus", On_off);
      ("directoryindex", Min_args 1);
      ("alias", Min_args 2);
      ("scriptalias", Min_args 2);
      ("redirect", Min_args 1);
      ("rewriteengine", On_off);
      ("languagepriority", Min_args 1);
      ("addlanguage", Min_args 2);
      ("forcelanguagepriority", Min_args 1);
      ("userdir", Min_args 1);
      ("setenvif", Min_args 2);
      ("browsermatch", Min_args 2);
      ("setenv", Min_args 1);
      ("indexoptions", Min_args 1);
      ("addicon", Min_args 2);
      ("addiconbytype", Min_args 2);
      ("defaulticon", Min_args 1);
      ("readmename", Min_args 1);
      ("headername", Min_args 1);
    ]

  let fields s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun f -> f <> "")

  type site = string * Conftree.Path.t

  type state = {
    mutable loaded : string list;    (* module identifiers *)
    mutable listeners : int list;
    mutable first_listen : site option;
    mutable document_root : string;
    mutable document_root_at : site option;
    mutable vhost_roots : (int * string) list;
    mutable directory_index : string list;
    mutable directory_index_at : site option;
    mutable unknown_ifmodules : (site * string) list;
  }

  let strip_quotes s =
    if String.length s >= 2 && s.[0] = '"' && s.[String.length s - 1] = '"' then
      String.sub s 1 (String.length s - 2)
    else s

  let validate_value state name validator value =
    let args = fields value in
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    match validator with
    | Anything -> Ok ()
    | Number ->
      (match args with
       | [ v ] when is_digits v -> Ok ()
       | _ -> fail "%s takes one numeric argument" name)
    | On_off ->
      (match List.map String.lowercase_ascii args with
       | [ "on" ] | [ "off" ] -> Ok ()
       | _ -> fail "%s must be On or Off" name)
    | On_off_or extra ->
      (match List.map String.lowercase_ascii args with
       | [ v ] when v = "on" || v = "off" || List.mem v extra -> Ok ()
       | _ -> fail "%s must be On, Off%s" name
                (String.concat "" (List.map (fun e -> " or " ^ e) extra)))
    | Enum allowed ->
      (match List.map String.lowercase_ascii args with
       | [ v ] when List.mem v allowed -> Ok ()
       | _ -> fail "%s must be one of %s" name (String.concat "|" allowed))
    | Port_list ->
      (match args with
       | [ spec ] ->
         (match parse_port spec with
          | Ok p ->
            if name = "listen" then state.listeners <- state.listeners @ [ p ];
            Ok ()
          | Error msg -> Error msg)
       | _ -> fail "%s takes one address or port argument" name)
    | Existing_dir ->
      (match args with
       | [ d ] when List.mem d existing_dirs -> Ok ()
       | [ d ] ->
         (* the shipped configs quote paths; unquote before checking *)
         let unq = strip_quotes d in
         if List.mem unq existing_dirs then Ok ()
         else fail "%s: could not open directory %s" name d
       | _ -> fail "%s takes one directory argument" name)
    | Existing_file ->
      (match args with
       | [ f ] when List.mem (strip_quotes f) existing_files -> Ok ()
       | [ f ] -> fail "%s: could not open file %s" name f
       | _ -> fail "%s takes one file argument" name)
    | Log_path ->
      (match args with
       | [ p ] ->
         let p = strip_quotes p in
         if String.length p > 0 && p.[0] = '|' then Ok ()
         else if List.mem (dir_of_path p) existing_dirs then Ok ()
         else fail "%s: could not open log file %s" name p
       | _ -> fail "%s takes one argument" name)
    | User_name ->
      (match args with
       | [ u ] when List.mem u known_users -> Ok ()
       | [ u ] -> fail "bad user name %s" u
       | _ -> fail "User takes one argument")
    | Group_name ->
      (match args with
       | [ g ] when List.mem g known_groups -> Ok ()
       | [ g ] -> fail "bad group name %s" g
       | _ -> fail "Group takes one argument")
    | Options_list ->
      let bad =
        List.find_opt
          (fun a ->
            let a = String.lowercase_ascii a in
            let a =
              if String.length a > 0 && (a.[0] = '+' || a.[0] = '-') then
                String.sub a 1 (String.length a - 1)
              else a
            in
            not (List.mem a option_tokens))
          args
      in
      (match bad with
       | Some a -> fail "Illegal option %s" a
       | None -> Ok ())
    | Override_list ->
      let bad =
        List.find_opt
          (fun a -> not (List.mem (String.lowercase_ascii a) override_tokens))
          args
      in
      (match bad with
       | Some a -> fail "Illegal override option %s" a
       | None -> Ok ())
    | Order_arg ->
      (match List.map String.lowercase_ascii args with
       | [ "allow,deny" ] | [ "deny,allow" ] | [ "mutual-failure" ] -> Ok ()
       | _ -> fail "unknown order")
    | From_list ->
      (match List.map String.lowercase_ascii args with
       | "from" :: _ :: _ -> Ok ()
       | _ -> fail "%s takes 'from <host>' arguments" name)
    | Min_args n ->
      if List.length args >= n then Ok ()
      else fail "%s takes at least %d argument(s)" name n

  (* ------------------------------------------------------------------ *)
  (* Config processing                                                    *)
  (* ------------------------------------------------------------------ *)

  let load_module args =
    match fields args with
    | [ name; path ] ->
      (match List.assoc_opt name modules with
       | Some canonical when strip_quotes path = canonical -> Ok name
       | Some canonical ->
         Error
           (Printf.sprintf
              "Cannot load %s into server: %s: cannot open shared object file (expected \
               %s)"
              path path canonical)
       | None ->
         Error
           (Printf.sprintf "Cannot load %s into server: undefined module %s" path name))
    | _ -> Error "LoadModule takes two arguments"

  let handle_directive state lname name args =
    match List.assoc_opt lname core_directives with
    | Some validator -> validate_value state lname validator args
    | None ->
      (match directive_module lname with
       | Some m when List.mem m state.loaded ->
         let validator =
           Option.value ~default:Anything (List.assoc_opt lname module_directive_validators)
         in
         validate_value state lname validator args
       | Some _ | None ->
         Error
           (Printf.sprintf
              "Invalid command '%s', perhaps misspelled or defined by a module not \
               included in the server configuration"
              name))

  let ifmodule_ref arg =
    let a = Strutil.trim arg in
    let negated = String.length a > 0 && a.[0] = '!' in
    let a = if negated then String.sub a 1 (String.length a - 1) else a in
    (* <IfModule mod_userdir.c> names the source file; map it to the
       module identifier used by LoadModule. *)
    let mod_name =
      match Strutil.drop_prefix ~prefix:"mod_" a with
      | Some rest when Filename.check_suffix rest ".c" ->
        Filename.chop_suffix rest ".c" ^ "_module"
      | Some _ | None -> a
    in
    (mod_name, negated)

  let check (report : Sut.report) files =
    let state =
      {
        loaded = [];
        listeners = [];
        first_listen = None;
        document_root = "";
        document_root_at = None;
        vhost_roots = [];
        directory_index = [];
        directory_index_at = None;
        unknown_ifmodules = [];
      }
    in
    (* paths are built reversed and turned round only where they are kept *)
    let problem file rpath message =
      report { Sut.file; path = List.rev rpath; message; suggestion = None }
    in
    (* httpd resolves LoadModule before the bulk of the configuration is
       interpreted (the shipped configs rely on this), so module loading
       is a first pass over every file and section. *)
    let rec preload file rpath (n : Node.t) =
      List.iteri
        (fun i (c : Node.t) ->
          let rpath = i :: rpath in
          if c.kind = Node.kind_directive && String.lowercase_ascii c.name = "loadmodule"
          then (
            match load_module (Node.value_or ~default:"" c) with
            | Ok name -> state.loaded <- name :: state.loaded
            | Error m -> problem file rpath m)
          else if c.kind = Node.kind_section then preload file rpath c)
        n.children
    in
    let rec walk file rpath ~vhost_port (n : Node.t) =
      List.iteri
        (fun i (c : Node.t) ->
          let rpath = i :: rpath in
          if c.kind = Node.kind_directive then directive file rpath ~vhost_port c
          else if c.kind = Node.kind_section then section file rpath ~vhost_port c)
        n.children
    and directive file rpath ~vhost_port (c : Node.t) =
      let lname = String.lowercase_ascii c.name in
      let args = Node.value_or ~default:"" c in
      let site () = Some (file, List.rev rpath) in
      if lname <> "loadmodule" then
        match handle_directive state lname c.name args with
        | Error m -> problem file rpath m
        | Ok () -> (
          match lname with
          | "listen" -> if state.first_listen = None then state.first_listen <- site ()
          | "documentroot" -> (
            let root =
              strip_quotes (Option.value ~default:"" (List.nth_opt (fields args) 0))
            in
            match vhost_port with
            | None ->
              state.document_root <- root;
              state.document_root_at <- site ()
            | Some p -> state.vhost_roots <- (p, root) :: state.vhost_roots)
          | "directoryindex" ->
            state.directory_index <- fields args;
            state.directory_index_at <- site ()
          | _ -> ())
    and section file rpath ~vhost_port (c : Node.t) =
      let arg = Strutil.trim (Option.value ~default:"" (Node.attr c "arg")) in
      match String.lowercase_ascii c.name with
      | "ifmodule" ->
        let mod_name, negated = ifmodule_ref arg in
        if not (known_module mod_name) then
          state.unknown_ifmodules <- ((file, List.rev rpath), arg) :: state.unknown_ifmodules;
        (* a skipped body is skipped entirely: even invalid commands are ignored *)
        if List.mem mod_name state.loaded <> negated then walk file rpath ~vhost_port c
      | "virtualhost" ->
        (match parse_port arg with
         | Ok p -> walk file rpath ~vhost_port:(Some p) c
         | Error _ when arg = "*" -> walk file rpath ~vhost_port:(Some 80) c
         | Error msg -> problem file rpath (Printf.sprintf "VirtualHost: %s" msg))
      | "directory" | "files" | "location" | "limit" -> walk file rpath ~vhost_port c
      | other ->
        problem file rpath
          (Printf.sprintf
             "Invalid command '<%s', perhaps misspelled or defined by a module not \
              included in the server configuration"
             other)
    in
    List.iter (fun (file, root) -> preload file [] root) files;
    List.iter (fun (file, root) -> walk file [] ~vhost_port:None root) files;
    state

  let listening state =
    if state.listeners = [] then Error "no listening sockets available, shutting down"
    else Ok ()

  (* ------------------------------------------------------------------ *)
  (* Functional test: an HTTP GET, like the paper's diagnosis script       *)
  (* ------------------------------------------------------------------ *)

  let docroot_has_index root = root = "/var/www/html"

  let functional_tests state () =
    let expected_port = 80 in
    if not (List.mem expected_port state.listeners) then
      [
        Sut.failed "http-get"
          (Printf.sprintf "connection refused on port %d (listening on: %s)" expected_port
             (String.concat "," (List.map string_of_int state.listeners)));
      ]
    else begin
      let root =
        match List.assoc_opt expected_port state.vhost_roots with
        | Some r -> r
        | None -> state.document_root
      in
      if not (docroot_has_index root) then
        [ Sut.failed "http-get" (Printf.sprintf "404 Not Found (DocumentRoot %s)" root) ]
      else if not (List.mem "index.html" state.directory_index) then
        [ Sut.failed "http-get" "403 Forbidden (no DirectoryIndex maps /)" ]
      else [ Sut.passed "http-get" ]
    end
end

module Apacheconf = struct

  let attr_arg = "arg"

  type frame = { name : string; arg : string; mutable nodes : Node.t list }

  let parse text =
    let push frame node = frame.nodes <- node :: frame.nodes in
    let finish frame =
      Node.section
        ~attrs:(if frame.arg = "" then [] else [ (attr_arg, frame.arg) ])
        frame.name
        (List.rev frame.nodes)
    in
    let root_frame = { name = ""; arg = ""; nodes = [] } in
    let stack = ref [ root_frame ] in
    let error = ref None in
    let fail lineno msg = if !error = None then error := Some (Parse_error.make ~line:lineno msg) in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let trimmed = Strutil.trim line in
        let top () = match !stack with f :: _ -> f | [] -> root_frame in
        if !error <> None then ()
        else if trimmed = "" then push (top ()) Node.blank
        else if trimmed.[0] = '#' then push (top ()) (Node.comment line)
        else if Strutil.is_prefix ~prefix:"</" trimmed then begin
          let inner = String.sub trimmed 2 (String.length trimmed - 2) in
          let name =
            match String.index_opt inner '>' with
            | Some j -> Strutil.trim (String.sub inner 0 j)
            | None -> Strutil.trim inner
          in
          match !stack with
          | frame :: (parent :: _ as rest) ->
            if String.lowercase_ascii frame.name <> String.lowercase_ascii name then
              fail lineno
                (Printf.sprintf "closing tag </%s> does not match open section <%s>" name
                   frame.name)
            else begin
              stack := rest;
              push parent (finish frame)
            end
          | [ _ ] | [] -> fail lineno (Printf.sprintf "stray closing tag </%s>" name)
        end
        else if trimmed.[0] = '<' then begin
          match String.index_opt trimmed '>' with
          | None -> fail lineno "unterminated section tag"
          | Some j ->
            let inner = String.sub trimmed 1 (j - 1) in
            let name, arg =
              (* the one change: a tab ends the name as a space does *)
              let blank =
                List.find_opt
                  (fun i -> inner.[i] = ' ' || inner.[i] = '\t')
                  (List.init (String.length inner) Fun.id)
              in
              match blank with
              | Some i ->
                ( Strutil.trim (String.sub inner 0 i),
                  Strutil.trim (String.sub inner (i + 1) (String.length inner - i - 1)) )
              | None -> (Strutil.trim inner, "")
            in
            stack := { name; arg; nodes = [] } :: !stack
        end
        else begin
          (* The name ends at the first blank (space or tab). *)
          let split_idx =
            let rec find i =
              if i >= String.length trimmed then None
              else if trimmed.[i] = ' ' || trimmed.[i] = '\t' then Some i
              else find (i + 1)
            in
            find 0
          in
          let name, value =
            match split_idx with
            | Some i ->
              ( String.sub trimmed 0 i,
                Some (Strutil.trim (String.sub trimmed i (String.length trimmed - i))) )
            | None -> (trimmed, None)
          in
          push (top ()) (Node.directive ?value name)
        end)
      (Strutil.lines text);
    match !error with
    | Some e -> Error e
    | None ->
      (match !stack with
       | [ root ] -> Ok (Node.root (List.rev root.nodes))
       | frame :: _ ->
         Error (Parse_error.make (Printf.sprintf "section <%s> is never closed" frame.name))
       | [] -> Error (Parse_error.make "internal parser error: empty stack"))
end

module Bindzone = struct

  let attr_type = "type"
  let attr_ttl = "ttl"
  let attr_class = "class"
  let attr_owner = "owner"

  let record ?ttl ~name ~rtype rdata =
    let attrs =
      ((attr_type, rtype) :: (match ttl with None -> [] | Some t -> [ (attr_ttl, t) ]))
      @ [ (attr_owner, name) ]
    in
    Node.make ~name ~value:rdata ~attrs Node.kind_record

  let strip_comment line =
    (* A ';' outside quotes starts a comment. *)
    let n = String.length line in
    let rec scan i in_quote =
      if i >= n then line
      else
        match line.[i] with
        | '"' -> scan (i + 1) (not in_quote)
        | ';' when not in_quote -> String.sub line 0 i
        | _ -> scan (i + 1) in_quote
    in
    scan 0 false

  (* Merge parenthesized multi-line records into single logical lines. *)
  let logical_lines text =
    let rec merge acc pending depth = function
      | [] -> if depth > 0 then Error "unbalanced parentheses" else Ok (List.rev acc)
      | raw :: rest ->
        let stripped = strip_comment raw in
        let opens = String.fold_left (fun n c -> if c = '(' then n + 1 else n) 0 stripped in
        let closes = String.fold_left (fun n c -> if c = ')' then n + 1 else n) 0 stripped in
        let depth' = depth + opens - closes in
        if depth' < 0 then Error "unbalanced parentheses"
        else if depth = 0 && depth' = 0 then merge ((raw, stripped) :: acc) "" 0 rest
        else if depth' > 0 then
          (* keep the opening line's own leading whitespace intact: it
             carries the blank-owner convention *)
          let pending' = if depth = 0 then stripped else pending ^ " " ^ stripped in
          merge acc pending' depth' rest
        else begin
          (* Closing line: flush the merged record with parens removed. *)
          let merged = pending ^ " " ^ stripped in
          let cleaned = String.map (fun c -> if c = '(' || c = ')' then ' ' else c) merged in
          merge ((cleaned, cleaned) :: acc) "" 0 rest
        end
    in
    merge [] "" 0 (Strutil.lines text)

  let record_types =
    [ "A"; "AAAA"; "NS"; "CNAME"; "SOA"; "PTR"; "MX"; "TXT"; "RP"; "HINFO"; "SRV"; "NAPTR" ]

  let is_class s = List.mem (String.uppercase_ascii s) [ "IN"; "CH"; "HS" ]

  let is_ttl s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

  let is_type s = List.mem (String.uppercase_ascii s) record_types

  let split_fields s =
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun f -> f <> "")

  let parse_record ~lineno ~prev_owner raw stripped =
    let leading_blank = raw <> "" && (raw.[0] = ' ' || raw.[0] = '\t') in
    let fields = split_fields stripped in
    match fields with
    | [] -> Error (Parse_error.make ~line:lineno "empty record")
    | first :: rest ->
      let owner_written, fields =
        if leading_blank then ("", first :: rest) else (first, rest)
      in
      let owner = if owner_written = "" then prev_owner else owner_written in
      (* Optional TTL and class may appear in either order before the type. *)
      let rec eat ttl cls = function
        | f :: rest when is_ttl f && ttl = None -> eat (Some f) cls rest
        | f :: rest when is_class f && cls = None -> eat ttl (Some f) rest
        | f :: rest when is_type f ->
          Ok (ttl, cls, String.uppercase_ascii f, String.concat " " rest)
        | f :: _ -> Error (Parse_error.make ~line:lineno (Printf.sprintf "unknown record type %S" f))
        | [] -> Error (Parse_error.make ~line:lineno "record is missing a type")
      in
      (match eat None None fields with
       | Error e -> Error e
       | Ok (ttl, cls, rtype, rdata) ->
         let attrs =
           [ (attr_type, rtype); (attr_owner, owner) ]
           @ (match ttl with None -> [] | Some t -> [ (attr_ttl, t) ])
           @ (match cls with None -> [] | Some c -> [ (attr_class, c) ])
         in
         Ok (Node.make ~name:owner_written ~value:rdata ~attrs Node.kind_record, owner))

  let parse text =
    match logical_lines text with
    | Error msg -> Error (Parse_error.make msg)
    | Ok lines ->
      let rec go acc prev_owner lineno = function
        | [] -> Ok (Node.root (List.rev acc))
        | (raw, stripped) :: rest ->
          let trimmed = Strutil.trim stripped in
          if trimmed = "" then
            (* Preserve pure comments distinctly from blanks. *)
            let node =
              if Strutil.trim raw <> "" then Node.comment raw else Node.blank
            in
            go (node :: acc) prev_owner (lineno + 1) rest
          else if trimmed.[0] = '$' then begin
            match Strutil.split_on_first ' ' trimmed with
            | Some (dname, dvalue) ->
              let node = Node.directive ~value:(Strutil.trim dvalue) dname in
              go (node :: acc) prev_owner (lineno + 1) rest
            | None ->
              Error (Parse_error.make ~line:lineno (Printf.sprintf "malformed directive %S" trimmed))
          end
          else
            (match parse_record ~lineno ~prev_owner raw stripped with
             | Error e -> Error e
             | Ok (node, owner) -> go (node :: acc) owner (lineno + 1) rest)
      in
      go [] "@" 1 lines
end

module Bind = struct
  open Suts.Mini_bind
  module Config_set = Conftree.Config_set

  let load_zones ~zones configs =
    (* named's zone loader: parse each master file, build the zone, run the
       consistency checks BIND performs at load time. *)
    let parse (file, _origin) =
      match List.assoc_opt file configs with
      | None -> Error (Printf.sprintf "zone file %s missing" file)
      | Some text ->
        (match Bindzone.parse text with
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
end
