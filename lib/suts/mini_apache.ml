module Strutil = Conferr_util.Strutil
module Node = Conftree.Node

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

module SMap = Map.Make (String)

(* A map with the first binding of each name, as [List.assoc_opt] finds
   it. *)
let map_of bindings = List.fold_right (fun (k, v) m -> SMap.add k v m) bindings SMap.empty

let module_paths = map_of modules

let known_module name = SMap.mem name module_paths

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

let fields = Strutil.fields

(* How httpd handles each lowercased directive name: a core directive
   with its validator, or one provided by a module.  Derived once from
   the lists above, which stay the single source; the maps are
   immutable, so domains that boot at once share them. *)
type handler = Core of validator | Provided_by of string * validator

let handlers =
  let provided (name, m) =
    let validator =
      Option.value ~default:Anything (List.assoc_opt name module_directive_validators)
    in
    (name, Provided_by (m, validator))
  in
  List.fold_right
    (fun (name, v) m -> SMap.add name (Core v) m)
    core_directives
    (map_of (List.map provided directive_modules))

let directive_module name =
  match SMap.find_opt (String.lowercase_ascii name) handlers with
  | Some (Provided_by (m, _)) -> Some m
  | Some (Core _) | None -> None

let mem_string s l = List.exists (String.equal s) l

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

(* Only the validators that read a value's fields split it. *)
let validate_value state name validator value =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match validator with
  | Anything -> Ok ()
  | Number ->
    (match fields value with
     | [ v ] when is_digits v -> Ok ()
     | _ -> fail "%s takes one numeric argument" name)
  | On_off ->
    (match List.map String.lowercase_ascii (fields value) with
     | [ "on" ] | [ "off" ] -> Ok ()
     | _ -> fail "%s must be On or Off" name)
  | On_off_or extra ->
    (match List.map String.lowercase_ascii (fields value) with
     | [ v ] when v = "on" || v = "off" || mem_string v extra -> Ok ()
     | _ -> fail "%s must be On, Off%s" name
              (String.concat "" (List.map (fun e -> " or " ^ e) extra)))
  | Enum allowed ->
    (match List.map String.lowercase_ascii (fields value) with
     | [ v ] when mem_string v allowed -> Ok ()
     | _ -> fail "%s must be one of %s" name (String.concat "|" allowed))
  | Port_list ->
    (match fields value with
     | [ spec ] ->
       (match parse_port spec with
        | Ok p ->
          if name = "listen" then state.listeners <- state.listeners @ [ p ];
          Ok ()
        | Error msg -> Error msg)
     | _ -> fail "%s takes one address or port argument" name)
  | Existing_dir ->
    (match fields value with
     | [ d ] when mem_string d existing_dirs -> Ok ()
     | [ d ] ->
       (* the shipped configs quote paths; unquote before checking *)
       let unq = strip_quotes d in
       if mem_string unq existing_dirs then Ok ()
       else fail "%s: could not open directory %s" name d
     | _ -> fail "%s takes one directory argument" name)
  | Existing_file ->
    (match fields value with
     | [ f ] when mem_string (strip_quotes f) existing_files -> Ok ()
     | [ f ] -> fail "%s: could not open file %s" name f
     | _ -> fail "%s takes one file argument" name)
  | Log_path ->
    (match fields value with
     | [ p ] ->
       let p = strip_quotes p in
       if String.length p > 0 && p.[0] = '|' then Ok ()
       else if mem_string (dir_of_path p) existing_dirs then Ok ()
       else fail "%s: could not open log file %s" name p
     | _ -> fail "%s takes one argument" name)
  | User_name ->
    (match fields value with
     | [ u ] when mem_string u known_users -> Ok ()
     | [ u ] -> fail "bad user name %s" u
     | _ -> fail "User takes one argument")
  | Group_name ->
    (match fields value with
     | [ g ] when mem_string g known_groups -> Ok ()
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
          not (mem_string a option_tokens))
        (fields value)
    in
    (match bad with
     | Some a -> fail "Illegal option %s" a
     | None -> Ok ())
  | Override_list ->
    let bad =
      List.find_opt
        (fun a -> not (mem_string (String.lowercase_ascii a) override_tokens))
        (fields value)
    in
    (match bad with
     | Some a -> fail "Illegal override option %s" a
     | None -> Ok ())
  | Order_arg ->
    (match List.map String.lowercase_ascii (fields value) with
     | [ "allow,deny" ] | [ "deny,allow" ] | [ "mutual-failure" ] -> Ok ()
     | _ -> fail "unknown order")
  | From_list ->
    (match List.map String.lowercase_ascii (fields value) with
     | "from" :: _ :: _ -> Ok ()
     | _ -> fail "%s takes 'from <host>' arguments" name)
  | Min_args n ->
    if List.length (fields value) >= n then Ok ()
    else fail "%s takes at least %d argument(s)" name n

(* ------------------------------------------------------------------ *)
(* Config processing                                                    *)
(* ------------------------------------------------------------------ *)

let load_module args =
  match fields args with
  | [ name; path ] ->
    (match SMap.find_opt name module_paths with
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

let is_loaded state m = mem_string m state.loaded

let handle_directive state lname name args =
  match SMap.find_opt lname handlers with
  | Some (Core validator) -> validate_value state lname validator args
  | Some (Provided_by (m, validator)) when is_loaded state m ->
    validate_value state lname validator args
  | Some (Provided_by _) | None ->
    Error
      (Printf.sprintf
         "Invalid command '%s', perhaps misspelled or defined by a module not \
          included in the server configuration"
         name)

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
  let site file rpath = Some (file, List.rev rpath) in
  (* httpd resolves LoadModule before the bulk of the configuration is
     interpreted (the shipped configs rely on this), so module loading
     is a first pass over every file and section; it compares names
     without lowercased copies, and the walk lowercases each once. *)
  let rec preload file rpath (n : Node.t) =
    List.iteri
      (fun i (c : Node.t) ->
        let rpath = i :: rpath in
        if c.kind = Node.kind_directive && Strutil.equal_ci c.name "loadmodule" then (
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
    if lname <> "loadmodule" then
      match handle_directive state lname c.name args with
      | Error m -> problem file rpath m
      | Ok () -> (
        match lname with
        | "listen" ->
          if state.first_listen = None then state.first_listen <- site file rpath
        | "documentroot" -> (
          let root =
            strip_quotes (Option.value ~default:"" (List.nth_opt (fields args) 0))
          in
          match vhost_port with
          | None ->
            state.document_root <- root;
            state.document_root_at <- site file rpath
          | Some p -> state.vhost_roots <- (p, root) :: state.vhost_roots)
        | "directoryindex" ->
          state.directory_index <- fields args;
          state.directory_index_at <- site file rpath
        | _ -> ())
  and section file rpath ~vhost_port (c : Node.t) =
    let arg = Strutil.trim (Option.value ~default:"" (Node.attr c "arg")) in
    match String.lowercase_ascii c.name with
    | "ifmodule" ->
      let mod_name, negated = ifmodule_ref arg in
      if not (known_module mod_name) then
        state.unknown_ifmodules <- ((file, List.rev rpath), arg) :: state.unknown_ifmodules;
      (* a skipped body is skipped entirely: even invalid commands are ignored *)
      if is_loaded state mod_name <> negated then walk file rpath ~vhost_port c
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
    else if not (mem_string "index.html" state.directory_index) then
      [ Sut.failed "http-get" "403 Forbidden (no DirectoryIndex maps /)" ]
    else [ Sut.passed "http-get" ]
  end

let boot configs =
  match List.assoc_opt "httpd.conf" configs with
  | None -> Error "httpd.conf not found"
  | Some main_text ->
    (* httpd.conf ends with an Include of ssl.conf; the two files form
       one configuration (the paper's multi-file Apache example). *)
    let text =
      match List.assoc_opt "ssl.conf" configs with
      | Some ssl -> String.concat "\n" [ main_text; ssl ]
      | None -> main_text
    in
    (match Formats.Apacheconf.parse text with
     | Error e ->
       Error (Printf.sprintf "Syntax error: %s" (Formats.Parse_error.to_string e))
     | Ok tree ->
       let ( let* ) = Result.bind in
       let* state =
         Sut.first_problem (fun report -> check report [ ("httpd.conf", tree) ])
       in
       let* () = listening state in
       Ok { Sut.run_tests = functional_tests state; shutdown = (fun () -> ()) })

let default_config =
  let load (name, path) = Printf.sprintf "LoadModule %s %s" name path in
  String.concat "\n"
    ([
       "# Apache HTTP Server main configuration";
       "ServerRoot /etc/httpd";
       "Listen 80";
       "PidFile /var/run/httpd.pid";
       "Timeout 120";
       "KeepAlive Off";
       "MaxKeepAliveRequests 100";
       "KeepAliveTimeout 15";
       "StartServers 8";
       "MinSpareServers 5";
       "MaxSpareServers 20";
       "ServerLimit 256";
       "MaxClients 256";
       "MaxRequestsPerChild 4000";
     ]
    @ List.map load modules
    @ [
        "User apache";
        "Group apache";
        "ServerAdmin root@localhost";
        "ServerName www.example.com";
        "UseCanonicalName Off";
        "DocumentRoot /var/www/html";
        "DirectoryIndex index.html index.html.var";
        "AccessFileName .htaccess";
        "TypesConfig /etc/mime.types";
        "DefaultType text/plain";
        "HostnameLookups Off";
        "ErrorLog /var/log/httpd/error_log";
        "LogLevel warn";
        "LogFormat \"%h %l %u %t\" common";
        "CustomLog /var/log/httpd/access_log common";
        "ServerTokens OS";
        "ServerSignature On";
        "Alias /icons/ /var/www/icons/";
        "ScriptAlias /cgi-bin/ /var/www/cgi-bin/";
        "IndexOptions FancyIndexing VersionSort NameWidth=*";
        "AddIconByType (TXT,/icons/text.gif) text/*";
        "DefaultIcon /icons/unknown.gif";
        "ReadmeName README.html";
        "HeaderName HEADER.html";
        "AddLanguage en .en";
        "AddLanguage fr .fr";
        "LanguagePriority en fr";
        "ForceLanguagePriority Prefer Fallback";
        "AddDefaultCharset UTF-8";
        "AddType application/x-compress .Z";
        "AddType application/x-gzip .gz .tgz";
        "AddHandler type-map var";
        "AddEncoding x-compress .Z";
        "AddEncoding x-gzip .gz .tgz";
        "BrowserMatch \"Mozilla/2\" nokeepalive";
        "BrowserMatch \"MSIE 4\\.0b2;\" nokeepalive downgrade-1.0";
        "SetEnvIf Request_URI \"\\.gif$\" object-is-image";
        "SetEnv APP_ENV production";
        "<Directory />";
        "  Options FollowSymLinks";
        "  AllowOverride None";
        "</Directory>";
        "<Directory \"/var/www/html\">";
        "  Options Indexes FollowSymLinks";
        "  AllowOverride None";
        "  Order allow,deny";
        "  Allow from all";
        "</Directory>";
        "<Directory \"/var/www/cgi-bin\">";
        "  AllowOverride None";
        "  Options None";
        "  Order allow,deny";
        "  Allow from all";
        "</Directory>";
        "<IfModule mod_userdir.c>";
        "  UserDir disabled";
        "</IfModule>";
        "<VirtualHost *:80>";
        "  ServerName www.example.com";
        "  DocumentRoot /var/www/html";
        "  ErrorLog /var/log/httpd/vhost_error_log";
        "  CustomLog /var/log/httpd/vhost_access_log common";
        "</VirtualHost>";
        "";
      ])

let ssl_config =
  String.concat "\n"
    [
      "# SSL virtual host configuration";
      "Listen 8443";
      "AddType application/x-x509-ca-cert .crt";
      "AddType application/x-pkcs7-crl .crl";
      "<VirtualHost *:8443>";
      "  ServerName www.example.com";
      "  DocumentRoot /var/www/html";
      "  ErrorLog /var/log/httpd/ssl_error_log";
      "  CustomLog /var/log/httpd/ssl_access_log common";
      "  SSLEngine on";
      "  SSLCertificateFile /etc/httpd/conf/magic";
      "</VirtualHost>";
      "";
    ]

let sut =
  {
    Sut.sut_name = "apache";
    version = "Apache httpd 2.2.6 (simulated)";
    config_files =
      [
        ("httpd.conf", Formats.Registry.apacheconf);
        ("ssl.conf", Formats.Registry.apacheconf);
      ];
    default_config = [ ("httpd.conf", default_config); ("ssl.conf", ssl_config) ];
    boot;
  }
