module Rule = Conferr_lint.Rule
module Finding = Conferr_lint.Finding
module Node = Conftree.Node
module Config_set = Conftree.Config_set
module Strutil = Conferr_util.Strutil

let raw ?suggestion ~file ~path message =
  {
    Rule.raw_file = file;
    raw_path = path;
    raw_message = message;
    raw_suggestion = suggestion;
  }

(* A problem a simulator's startup checks report, as the finding of the
   agreement rule that takes it. *)
let of_problem (p : Sut.problem) =
  raw ?suggestion:p.suggestion ~file:p.file ~path:p.path p.message

(* ------------------------------------------------------------------ *)
(* PostgreSQL                                                           *)
(* ------------------------------------------------------------------ *)

let pg_file = "postgresql.conf"

(* The paper's stock postgresql.conf.  Deleting any of these reverts
   silently to the built-in default: the server's only silent gap. *)
let pg_stock =
  [
    "max_connections";
    "shared_buffers";
    "max_fsm_pages";
    "max_fsm_relations";
    "datestyle";
    "lc_messages";
    "log_timezone";
    "listen_addresses";
  ]

let pg_expect : Mini_pg.spec -> string = function
  | Pint { min; max; _ } -> Printf.sprintf "an integer in %d..%d" min max
  | Pmem _ -> "an amount with an exact kB/MB/GB unit (bare numbers are 8kB pages)"
  | Ptime _ -> "a duration with an ms/s/min/h/d unit (bare numbers are ms)"
  | Pfloat _ -> "a decimal number"
  | Pbool _ -> "a boolean word"
  | Penum _ -> "a known keyword list"
  | Pstring _ -> "a known value"

let pg_syntax =
  Rule.make ~id:"PG-SYNTAX" ~severity:Finding.Error
    ~doc:"a [section] header is not valid postgresql.conf syntax (agreement)"
    (Rule.Check_set
       (fun subject ->
         match Config_set.find (Rule.config subject) pg_file with
         | None -> []
         | Some root ->
           List.concat
             (List.mapi
                (fun i (n : Node.t) ->
                  match
                    if n.kind = Node.kind_directive then Mini_pg.syntax_error n.name
                    else None
                  with
                  | Some m -> [ raw ~file:pg_file ~path:[ i ] m ]
                  | None -> [])
                root.children)))

let pg_unknown =
  Rule.make ~id:"PG-UNKNOWN" ~severity:Finding.Error
    ~doc:"unknown parameter names abort startup with FATAL (agreement)"
    (Rule.Unknown
       {
         target = Rule.in_file pg_file;
         kind = Node.kind_directive;
         known =
           (fun n ->
             (* '['-headers are PG-SYNTAX's, not an unknown name *)
             Mini_pg.syntax_error n <> None
             || List.mem_assoc (String.lowercase_ascii n) Mini_pg.specs);
         vocabulary = Vocabulary.postgres;
         what = "parameter";
       })

let pg_value_rules =
  List.map
    (fun (name, spec) ->
      let check v =
        match Mini_pg.check_value name spec v with Ok _ -> None | Error m -> Some m
      in
      Rule.make ~id:"PG-VALUE" ~severity:Finding.Error
        ~doc:(Printf.sprintf "'%s' takes %s (agreement)" name (pg_expect spec))
        (Rule.Value
           {
             target = Rule.in_file pg_file;
             name;
             canon = Rule.lower;
             vtype = Rule.Custom { expect = pg_expect spec; check };
             missing = check "";
           }))
    Mini_pg.specs

(* The server's cross-parameter constraints as Relation rules, read with
   its parsers and defaults. *)
let pg_relation (r : Mini_pg.relation) =
  let number name = Option.get (Mini_pg.number (List.assoc name Mini_pg.specs)) in
  let term ?coeff name =
    let n = number name in
    Rule.term ?coeff ~unit_label:n.unit_label
      ~read:(fun v -> Result.to_option (n.parse name v))
      ~default:n.default name
  in
  let per = match (number r.lhs).unit_label with "kb" -> "kB" | "ms" -> "ms" | _ -> "" in
  let describe = Printf.sprintf "%s >= %d%s * %s" r.lhs r.coeff per r.rhs in
  Rule.make ~id:("PG-REL-" ^ r.tag) ~severity:Finding.Error
    ~doc:(Printf.sprintf "startup requires %s (agreement)" describe)
    (Rule.Relation
       {
         target = Rule.anywhere;
         canon = Rule.lower;
         op = Rule.Rge;
         lhs = Rule.linexp [ term r.lhs ];
         rhs = Rule.linexp [ term ~coeff:r.coeff r.rhs ];
         describe;
         per_file = false;
         harvest = None;
       })

let pg_required_rules =
  List.map
    (fun name ->
      Rule.make ~id:"PG-REQUIRED" ~severity:Finding.Warning
        ~doc:
          (Printf.sprintf
             "the stock configuration sets '%s'; deleting it silently reverts to \
              the built-in default (gap)"
             name)
        (Rule.Required
           { target = Rule.anywhere; file = pg_file; name; canon = Rule.lower }))
    pg_stock

let pg_dup =
  Rule.make ~id:"PG-DUP" ~severity:Finding.Warning
    ~doc:"a repeated parameter is silently last-one-wins (gap)"
    (Rule.No_duplicates
       { target = Rule.in_file pg_file; names = None; canon = Rule.lower })

let postgres =
  (pg_syntax :: pg_unknown :: pg_dup :: List.map pg_relation Mini_pg.relations)
  @ pg_value_rules @ pg_required_rules

(* ------------------------------------------------------------------ *)
(* MySQL                                                                *)
(* ------------------------------------------------------------------ *)

let my_file = "my.cnf"

(* Sections some tool of the shipped install reads.  Matching is exact,
   like the server's own reader: [MySQLd] is a different — dead —
   section. *)
let my_sections = [ "mysqld"; "mysqldump"; "mysqld_safe"; "client"; "mysql"; "isamchk" ]

let my_safe_options = [ "log_error"; "pid_file"; "nice" ]

let ini_sections (root : Node.t) =
  List.mapi (fun i n -> (i, n)) root.children
  |> List.filter (fun (_, (n : Node.t)) -> n.kind = Node.kind_section)

let ini_directives (si, (s : Node.t)) =
  List.mapi (fun j d -> ([ si; j ], d)) s.children
  |> List.filter (fun (_, (d : Node.t)) -> d.kind = Node.kind_directive)

let my_section_directives set name =
  match Config_set.find set my_file with
  | None -> []
  | Some root ->
    ini_sections root
    |> List.filter (fun (_, (s : Node.t)) -> s.name = name)
    |> List.concat_map ini_directives

(* The [mysqld] directives with their sites and their names as the
   daemon resolves them, once per set for every rule that reads them. *)
let my_mysqld =
  Rule.view (fun subject ->
      List.map
        (fun (path, (d : Node.t)) -> (path, d, Mini_mysql.resolve_name d.name))
        (my_section_directives (Rule.config subject) "mysqld"))

(* The daemon's own reading of each [mysqld] variable: (site, full name,
   spec, written value, reading).  Unresolved names are MY-UNKNOWN's and
   datadir is MY-DATADIR's. *)
let my_readings =
  Rule.view (fun subject ->
      List.filter_map
        (fun (path, (d : Node.t), resolved) ->
          match resolved with
          | `Unknown | `Ambiguous -> None
          | `Known full -> (
            match List.assoc full Mini_mysql.mysqld_specs with
            | Path_existing _ -> None
            | spec ->
              Some
                ( path,
                  full,
                  spec,
                  Option.value ~default:"" d.value,
                  Mini_mysql.read_value full spec d.value )))
        (Rule.read subject my_mysqld))

let my_reading_rule ~id ~severity ~doc pick =
  Rule.make ~id ~severity ~doc
    (Rule.Check_set
       (fun subject ->
         List.filter_map
           (fun (path, full, spec, v, reading) ->
             Option.map (raw ~file:my_file ~path) (pick full spec v reading))
           (Rule.read subject my_readings)))

let my_orphan =
  Rule.make ~id:"MY-ORPHAN" ~severity:Finding.Error
    ~doc:"options must follow a [group] header (agreement)"
    (Rule.Check_set
       (fun subject ->
         match Config_set.find (Rule.config subject) my_file with
         | None -> [ raw ~file:my_file ~path:[] "my.cnf not found" ]
         | Some root ->
           ini_sections root
           |> List.map (fun ((_, (s : Node.t)) as section) ->
                  ( s.name,
                    List.map
                      (fun (path, (d : Node.t)) -> (path, d.name))
                      (ini_directives section) ))
           |> Mini_mysql.orphans
           |> List.map (fun (path, m) -> raw ~file:my_file ~path m)))

let my_section =
  Rule.make ~id:"MY-SECTION" ~severity:Finding.Error
    ~doc:
      "an unrecognized [group] is never parsed by any tool; its options are \
       silently dead (gap)"
    (Rule.Unknown
       {
         target = Rule.in_file my_file;
         kind = Node.kind_section;
         known = (fun n -> n = "" || List.mem n my_sections);
         vocabulary = my_sections;
         what = "section";
       })

let my_unknown =
  Rule.make ~id:"MY-UNKNOWN" ~severity:Finding.Error
    ~doc:"unknown [mysqld] variables abort startup (agreement)"
    (Rule.Unknown
       {
         target = Rule.in_section ~file:my_file "mysqld";
         kind = Node.kind_directive;
         known =
           (fun n ->
             match Mini_mysql.resolve_name n with `Known _ -> true | _ -> false);
         vocabulary = Vocabulary.mysql;
         what = "variable";
       })

let my_prefix =
  Rule.make ~id:"MY-PREFIX" ~severity:Finding.Warning
    ~doc:
      "an unambiguous name prefix is accepted silently; it breaks when a new \
       variable makes it ambiguous (gap)"
    (Rule.Check_set
       (fun subject ->
         List.filter_map
           (fun (path, (d : Node.t), resolved) ->
             match resolved with
             | `Known full when Mini_mysql.fold_dashes d.name <> full ->
               Some
                 (raw ~suggestion:full ~file:my_file ~path
                    (Printf.sprintf "abbreviated variable name '%s' resolves to '%s'"
                       d.name full))
             | _ -> None)
           (Rule.read subject my_mysqld)))

let my_silent =
  my_reading_rule ~id:"MY-SILENT-DEFAULT" ~severity:Finding.Error
    ~doc:"an unusable numeric value is silently replaced by the default (gap)"
    (fun full spec v reading ->
      let v = Strutil.trim v in
      let silently = "it is silently replaced by the built-in default" in
      match (reading, spec) with
      | Mini_mysql.Leading_multiplier, _ ->
        Some (Printf.sprintf "%s: value '%s' starts with a multiplier; %s" full v silently)
      | Out_of_bounds (n, scaled), (Size b | Int b) ->
        Some
          (Printf.sprintf "%s: value %s is outside [%Ld, %Ld]; %s" full
             (if scaled then Printf.sprintf "'%s' (%Ld)" v n else Int64.to_string n)
             b.min b.max silently)
      | _ -> None)

let my_junk =
  my_reading_rule ~id:"MY-VALUE-JUNK" ~severity:Finding.Warning
    ~doc:"trailing junk after a multiplier (or after a flag) is silently dropped (gap)"
    (fun full _ v reading ->
      match reading with
      | Mini_mysql.Truncated (n, c) ->
        Some
          (Printf.sprintf
             "%s: text after the '%c' multiplier in '%s' is silently dropped (parsed \
              as %Ld)"
             full c (Strutil.trim v) n)
      | Ignored_value ->
        Some
          (Printf.sprintf "%s: '%s' takes no value; '%s' is silently ignored" full full v)
      | _ -> None)

let my_missing =
  my_reading_rule ~id:"MY-MISSING-VALUE" ~severity:Finding.Warning
    ~doc:"a numeric variable without a value is silently defaulted (gap)"
    (fun full _ _ reading ->
      match reading with
      | Mini_mysql.Valueless ->
        Some
          (Printf.sprintf "variable '%s' has no value; the built-in default is \
                           silently used" full)
      | _ -> None)

let my_bad =
  my_reading_rule ~id:"MY-BAD-VALUE" ~severity:Finding.Error
    ~doc:"a malformed value aborts startup (agreement)"
    (fun _ _ _ reading -> match reading with Mini_mysql.Refused m -> Some m | _ -> None)

(* A Reference rule, not a reading rule, so that repair restores the
   stock directory and infer matches it by name; the lookup is the
   daemon's. *)
let my_datadir =
  let datadir = List.assoc "datadir" Mini_mysql.mysqld_specs in
  Rule.make ~id:"MY-DATADIR" ~severity:Finding.Error
    ~doc:"datadir must name an existing directory (agreement)"
    (Rule.Reference
       {
         target = Rule.in_section ~file:my_file "mysqld";
         name = "datadir";
         canon = Mini_mysql.fold_dashes;
         what = "directory";
         exists =
           (fun v ->
             match Mini_mysql.read_value "datadir" datadir (Some v) with
             | Refused _ -> false
             | _ -> true);
       })

let my_latent =
  Rule.make ~id:"MY-LATENT" ~severity:Finding.Error
    ~doc:
      "tool sections are parsed only when the tool runs, often from cron — \
       errors there are latent (gap)"
    (Rule.Check_set
       (fun subject ->
         let set = Rule.config subject in
         let dump =
           List.concat_map
             (fun (path, (d : Node.t)) ->
               match Mini_mysql.check_mysqldump_option d.name d.value with
               | Some (Unknown_option m) ->
                 [ raw ~file:my_file ~path (m ^ "; the tool will fail when it next runs") ]
               | Some (Bad_value m) -> [ raw ~file:my_file ~path m ]
               | None -> [])
             (my_section_directives set "mysqldump")
         in
         let safe =
           List.concat_map
             (fun (path, (d : Node.t)) ->
               if not (List.mem (Mini_mysql.fold_dashes d.name) my_safe_options) then
                 [
                   raw ~file:my_file ~path
                     (Printf.sprintf
                        "mysqld_safe: unknown option '--%s'; the wrapper will fail \
                         when it next runs"
                        d.name);
                 ]
               else [])
             (my_section_directives set "mysqld_safe")
         in
         dump @ safe))

let my_dup =
  Rule.make ~id:"MY-DUP" ~severity:Finding.Warning
    ~doc:"a repeated variable is silently last-one-wins (gap)"
    (Rule.No_duplicates
       {
         target = Rule.in_section ~file:my_file "mysqld";
         names = None;
         canon = Mini_mysql.fold_dashes;
       })

let my_functional =
  my_reading_rule ~id:"MY-FUNCTIONAL" ~severity:Finding.Warning
    ~doc:"the diagnosis probe connects to port 3306; another port fails it (gap)"
    (fun full _ _ reading ->
      match (full, reading) with
      | "port", Mini_mysql.Exact p when p <> 3306L ->
        Some
          (Printf.sprintf
             "the diagnosis probe connects to port 3306; port %Ld will fail it" p)
      | _ -> None)

let mysql =
  [
    my_orphan;
    my_section;
    my_unknown;
    my_prefix;
    my_silent;
    my_junk;
    my_missing;
    my_bad;
    my_datadir;
    my_latent;
    my_dup;
    my_functional;
  ]

(* ------------------------------------------------------------------ *)
(* Apache                                                               *)
(* ------------------------------------------------------------------ *)

(* httpd's startup checks (Mini_apache.check) over httpd.conf then
   ssl.conf, the order boot concatenates them in: every problem, and
   what a server that starts runs with.  [None] without httpd.conf.  One
   walk per set, read by the four AP-* set rules. *)
let ap_check =
  Rule.view (fun subject ->
      let set = Rule.config subject in
      if not (List.mem "httpd.conf" (Config_set.names set)) then None
      else
        let files =
          List.filter_map
            (fun f -> Option.map (fun t -> (f, t)) (Config_set.find set f))
            [ "httpd.conf"; "ssl.conf" ]
        in
        Some (Sut.all_problems (fun report -> Mini_apache.check report files)))

let ap_conf =
  Rule.make ~id:"AP-CONF" ~severity:Finding.Error
    ~doc:
      "directives must be known, provided by a loaded module, and carry valid \
       values (agreement)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject ap_check with
         | None -> [ raw ~file:"httpd.conf" ~path:[] "httpd.conf not found" ]
         | Some (problems, _) -> List.map of_problem problems))

let ap_ifmodule =
  Rule.make ~id:"AP-IFMODULE" ~severity:Finding.Warning
    ~doc:
      "an <IfModule> naming an unknown module silently hides its whole body (gap)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject ap_check with
         | None -> []
         | Some (_, st) ->
           List.rev_map
             (fun ((file, path), arg) ->
               raw ~file ~path
                 (Printf.sprintf
                    "<IfModule %s> tests an unknown module; its whole body is \
                     silently skipped"
                    arg))
             st.unknown_ifmodules))

let ap_nolisten =
  Rule.make ~id:"AP-NOLISTEN" ~severity:Finding.Error
    ~doc:"without a valid Listen there are no listening sockets (agreement)"
    (Rule.Check_set
       (fun subject ->
         match
           Option.map (fun (_, st) -> Mini_apache.listening st) (Rule.read subject ap_check)
         with
         | Some (Error m) -> [ raw ~file:"httpd.conf" ~path:[] m ]
         | Some (Ok ()) | None -> []))

let ap_functional =
  Rule.make ~id:"AP-FUNCTIONAL" ~severity:Finding.Warning
    ~doc:
      "the HTTP probe GETs port 80 and expects /var/www/html with index.html \
       (gap: survives startup)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject ap_check with
         | None -> []
         | Some (_, st) ->
           let out = ref [] in
           let anchor fallback = Option.value ~default:("httpd.conf", []) fallback in
           if st.listeners <> [] && not (List.mem 80 st.listeners) then begin
             let file, path = anchor st.first_listen in
             out :=
               raw ~file ~path
                 (Printf.sprintf
                    "the HTTP probe connects to port 80; listening only on: %s"
                    (String.concat "," (List.map string_of_int st.listeners)))
               :: !out
           end;
           let root =
             match List.assoc_opt 80 st.vhost_roots with
             | Some r -> r
             | None -> st.document_root
           in
           if root <> "/var/www/html" then begin
             let file, path = anchor st.document_root_at in
             out :=
               raw ~file ~path
                 (Printf.sprintf
                    "404 predicted: DocumentRoot %S has no site content (the probe \
                     expects /var/www/html)"
                    root)
               :: !out
           end;
           if not (List.mem "index.html" st.directory_index) then begin
             let file, path = anchor st.directory_index_at in
             out :=
               raw ~file ~path
                 "403 predicted: DirectoryIndex does not map / to index.html"
               :: !out
           end;
           List.rev !out))

let ap_hostname_ok h =
  let h = match String.index_opt h ':' with Some i -> String.sub h 0 i | None -> h in
  let label_ok l =
    l <> ""
    && l.[0] <> '-'
    && l.[String.length l - 1] <> '-'
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
           || c = '-')
         l
  in
  h <> "" && List.for_all label_ok (String.split_on_char '.' h)

let ap_mime_ok t =
  match String.index_opt t '/' with
  | Some i ->
    i > 0
    && i < String.length t - 1
    && not (String.contains_from t (i + 1) '/')
  | None -> false

let ap_value_rule ~id ~doc ~name check =
  Rule.make ~id ~severity:Finding.Warning ~doc
    (Rule.Value
       {
         target = Rule.anywhere;
         name;
         canon = Rule.lower;
         vtype = Rule.Custom { expect = doc; check };
         missing = None;
       })

let ap_servername =
  ap_value_rule ~id:"AP-SERVERNAME" ~name:"servername"
    ~doc:"ServerName should be a DNS host name; httpd accepts anything (gap)"
    (fun v ->
      match Mini_apache.fields v with
      | [ h ] when ap_hostname_ok h -> None
      | _ ->
        Some
          (Printf.sprintf
             "ServerName '%s' does not look like a DNS host name; httpd accepts it \
              unchecked"
             v))

let ap_serveradmin =
  ap_value_rule ~id:"AP-SERVERADMIN" ~name:"serveradmin"
    ~doc:"ServerAdmin should be an email address; httpd accepts anything (gap)"
    (fun v ->
      let ok =
        match String.index_opt v '@' with
        | Some i -> i > 0 && i < String.length v - 1 && not (String.contains v ' ')
        | None -> false
      in
      if ok then None
      else
        Some
          (Printf.sprintf
             "ServerAdmin '%s' is not an email address; httpd accepts it unchecked" v))

let ap_defaulttype =
  ap_value_rule ~id:"AP-MIME" ~name:"defaulttype"
    ~doc:"DefaultType should be an RFC 2045 type/subtype; httpd accepts anything (gap)"
    (fun v ->
      match Mini_apache.fields v with
      | [ t ] when ap_mime_ok t -> None
      | _ ->
        Some
          (Printf.sprintf
             "DefaultType '%s' is not a type/subtype MIME type; httpd accepts it \
              unchecked"
             v))

let ap_addtype =
  ap_value_rule ~id:"AP-MIME" ~name:"addtype"
    ~doc:
      "AddType's first argument should be an RFC 2045 type/subtype; httpd accepts \
       anything (gap)"
    (fun v ->
      match Mini_apache.fields v with
      | t :: _ :: _ when ap_mime_ok t -> None
      | t :: _ :: _ ->
        Some
          (Printf.sprintf
             "AddType '%s' is not a type/subtype MIME type; httpd accepts it \
              unchecked"
             t)
      | _ -> None (* argument count is AP-CONF's (Min_args) business *))

let ap_dup =
  Rule.make ~id:"AP-DUP" ~severity:Finding.Warning
    ~doc:"repeating a single-valued directive is silently last-one-wins (gap)"
    (Rule.No_duplicates
       {
         target = Rule.anywhere;
         names =
           Some
             [
               "servername";
               "serveradmin";
               "documentroot";
               "errorlog";
               "loglevel";
               "pidfile";
               "timeout";
               "keepalive";
               "keepalivetimeout";
               "maxclients";
               "user";
               "group";
               "defaulttype";
             ];
         canon = Rule.lower;
       })

let apache =
  [
    ap_conf;
    ap_nolisten;
    ap_ifmodule;
    ap_functional;
    ap_servername;
    ap_serveradmin;
    ap_defaulttype;
    ap_addtype;
    ap_dup;
  ]

(* ------------------------------------------------------------------ *)
(* BIND                                                                 *)
(* ------------------------------------------------------------------ *)

let bd_conf_file = "named.conf"

(* named's reading of named.conf (Mini_bind.read_named_conf): every
   problem and the zones declared with a file. *)
let named_conf =
  Rule.view (fun subject ->
      match Config_set.find (Rule.config subject) bd_conf_file with
      | None -> ([ raw ~file:bd_conf_file ~path:[] "named.conf not found" ], [])
      | Some root ->
        let problems, decls =
          Sut.all_problems (fun report -> Mini_bind.read_named_conf report root)
        in
        (List.map of_problem problems, decls))

let bd_conf =
  Rule.make ~id:"BD-CONF" ~severity:Finding.Error
    ~doc:"named.conf blocks, options and zone declarations are checked (agreement)"
    (Rule.Check_set (fun subject -> fst (Rule.read subject named_conf)))

let bd_dangling =
  Rule.make ~id:"BD-FILE" ~severity:Finding.Error
    ~doc:"a declared zone file must exist (agreement)"
    (Rule.Check_set
       (fun subject ->
         let _, decls = Rule.read subject named_conf in
         let exists f = List.mem f (Config_set.names (Rule.config subject)) in
         List.map of_problem
           (fst
              (Sut.all_problems (fun report ->
                   Mini_bind.check_zone_files report ~exists decls)))))

let bd_unused =
  Rule.make ~id:"BD-UNUSED" ~severity:Finding.Warning
    ~doc:"a zone file not declared in named.conf is never served (gap)"
    (Rule.Check_set
       (fun subject ->
         let _, decls = Rule.read subject named_conf in
         let declared = List.map (fun (d : Mini_bind.zone_decl) -> d.zone_file) decls in
         List.concat_map
           (fun f ->
             if f <> bd_conf_file && not (List.mem f declared) then
               [
                 raw ~file:f ~path:[]
                   (Printf.sprintf
                      "zone file '%s' is not declared in named.conf; its zone is \
                       not served"
                      f);
               ]
             else [])
           (Config_set.names (Rule.config subject))))

(* The declared-and-present zones decoded into the abstract record
   model, once per set for BD-LOAD and the record rules; [Error []] when
   nothing can be decoded, [Error raws] when decoding fails (the failure
   itself is a BD-LOAD raw). *)
let bd_decode =
  Rule.view (fun subject ->
      let set = Rule.config subject in
      let _, decls = Rule.read subject named_conf in
      let present =
        List.filter
          (fun (d : Mini_bind.zone_decl) -> List.mem d.zone_file (Config_set.names set))
          decls
      in
      let zones = List.map (fun (d : Mini_bind.zone_decl) -> (d.zone_file, d.origin)) present in
      if zones = [] then (present, Error [])
      else begin
        let subset =
          Config_set.of_list
            (List.filter_map
               (fun (f, _) ->
                 Option.map (fun t -> (f, t)) (Config_set.find set f))
               zones)
        in
        match (Dnsmodel.Codec.bind ~zones).Dnsmodel.Codec.decode subset with
        | Error msg ->
          ( present,
            Error
              [
                raw ~file:(List.hd (List.map fst zones)) ~path:[]
                  (Printf.sprintf "dns_master_load: %s" msg);
              ] )
        | Ok records -> (present, Ok records)
      end)

let bd_load =
  Rule.make ~id:"BD-LOAD" ~severity:Finding.Error
    ~doc:"zone files must decode into DNS records (agreement)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject bd_decode with _, Error raws -> raws | _, Ok _ -> []))

(* Anchor a finding on the record node for (owner, rtype) in the zone
   file where the record came from. *)
let bd_record_path set ~file ~origin ~owner ~rtype =
  match Config_set.find set file with
  | None -> (bd_conf_file, [])
  | Some tree ->
    let want = Dnsmodel.Name.normalize ~origin owner in
    let found = ref None in
    List.iteri
      (fun i (n : Node.t) ->
        if !found = None && n.kind = Node.kind_record then begin
          let n_owner =
            Dnsmodel.Name.normalize ~origin
              (Option.value ~default:n.name (Node.attr n "owner"))
          in
          let n_type =
            String.uppercase_ascii (Option.value ~default:"" (Node.attr n "type"))
          in
          if n_owner = want && n_type = rtype then found := Some [ i ]
        end)
      tree.children;
    (file, Option.value ~default:[] !found)

let bd_with_records f =
  Rule.Check_set
    (fun subject ->
      match Rule.read subject bd_decode with
      | _, Error _ -> []
      | decls, Ok records -> f (Rule.config subject) decls records)

let bd_file_of (r : Dnsmodel.Record.t) (decls : Mini_bind.zone_decl list) =
  match Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file with
  | Some f -> f
  | None -> ( match decls with d :: _ -> d.zone_file | [] -> bd_conf_file)

let bd_origin_of (r : Dnsmodel.Record.t) decls =
  match
    List.find_opt
      (fun (d : Mini_bind.zone_decl) -> Dnsmodel.Name.in_domain ~domain:d.origin r.owner)
      decls
  with
  | Some d -> d.origin
  | None -> "."

let bd_anchor set decls (r : Dnsmodel.Record.t) =
  bd_record_path set ~file:(bd_file_of r decls) ~origin:(bd_origin_of r decls)
    ~owner:r.owner ~rtype:(Dnsmodel.Record.rtype r)

let bd_zone_checks =
  Rule.make ~id:"BD-ZONE" ~severity:Finding.Error
    ~doc:"the consistency checks BIND runs at zone load (agreement)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (d : Mini_bind.zone_decl) ->
             let zone =
               Dnsmodel.Zone.make ~origin:d.origin
                 (List.filter
                    (fun r ->
                      Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file
                      = Some d.zone_file)
                    records)
             in
             List.map
               (fun problem ->
                 let message =
                   Format.asprintf "zone %s: %a: not loaded due to errors"
                     d.origin Dnsmodel.Zone.pp_problem problem
                 in
                 let file, path =
                   match problem with
                   | Dnsmodel.Zone.Cname_and_other_data name ->
                     bd_record_path set ~file:d.zone_file ~origin:d.origin
                       ~owner:name ~rtype:"CNAME"
                   | Dnsmodel.Zone.Mx_target_is_alias (owner, _) ->
                     bd_record_path set ~file:d.zone_file ~origin:d.origin
                       ~owner ~rtype:"MX"
                   | Dnsmodel.Zone.Ns_target_is_alias (owner, _) ->
                     bd_record_path set ~file:d.zone_file ~origin:d.origin
                       ~owner ~rtype:"NS"
                   | Dnsmodel.Zone.Missing_soa -> (d.zone_file, [])
                 in
                 raw ~file ~path message)
               (Dnsmodel.Zone.validate zone))
           decls))

let bd_soa_at_apex =
  Rule.make ~id:"BD-SOA" ~severity:Finding.Warning
    ~doc:
      "the SOA must sit at the zone apex; BIND only checks that one exists \
       somewhere (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (d : Mini_bind.zone_decl) ->
             let in_zone =
               List.filter
                 (fun (r : Dnsmodel.Record.t) ->
                   Dnsmodel.Record.tag r Dnsmodel.Codec.tag_file = Some d.zone_file)
                 records
             in
             let soas =
               List.filter
                 (fun r -> Dnsmodel.Record.rtype r = "SOA")
                 in_zone
             in
             (* no SOA at all is BD-ZONE's Missing_soa *)
             if
               soas <> []
               && not
                    (List.exists
                       (fun (r : Dnsmodel.Record.t) -> r.owner = d.origin)
                       soas)
             then
               List.map
                 (fun (r : Dnsmodel.Record.t) ->
                   let file, path =
                     bd_record_path set ~file:d.zone_file ~origin:d.origin
                       ~owner:r.owner ~rtype:"SOA"
                   in
                   raw ~file ~path
                     (Printf.sprintf
                        "zone %s: SOA is at %s, not at the apex; queries for the \
                         zone apex will fail"
                        d.origin r.owner))
                 soas
             else [])
           decls))

let bd_is_reverse origin = Dnsmodel.Name.in_domain ~domain:"in-addr.arpa." origin

let bd_ptr_missing =
  Rule.make ~id:"BD-PTR-MISSING" ~severity:Finding.Error
    ~doc:
      "every address should have a PTR in the declared reverse zone; BIND never \
       cross-checks (gap)"
    (bd_with_records
       (fun set decls records ->
         let reverse_declared =
           List.exists (fun (d : Mini_bind.zone_decl) -> bd_is_reverse d.origin) decls
         in
         if not reverse_declared then []
         else
           List.concat_map
             (fun (r : Dnsmodel.Record.t) ->
               match r.rdata with
               | Dnsmodel.Record.A ip -> (
                 match Dnsmodel.Name.reverse_of_ipv4 ip with
                 | None -> []
                 | Some rev ->
                   let covered =
                     List.exists
                       (fun (d : Mini_bind.zone_decl) ->
                         bd_is_reverse d.origin
                         && Dnsmodel.Name.in_domain ~domain:d.origin rev)
                       decls
                   in
                   let has_ptr =
                     List.exists
                       (fun (p : Dnsmodel.Record.t) ->
                         p.owner = rev && Dnsmodel.Record.rtype p = "PTR")
                       records
                   in
                   if covered && not has_ptr then begin
                     let file, path = bd_anchor set decls r in
                     [
                       raw ~file ~path
                         (Printf.sprintf
                            "missing PTR: no %s record for %s (%s); reverse lookup \
                             will fail"
                            "PTR" r.owner ip);
                     ]
                   end
                   else [])
               | _ -> [])
             records))

let bd_ptr_alias =
  Rule.make ~id:"BD-PTR-ALIAS" ~severity:Finding.Error
    ~doc:"a PTR should point at a canonical name, not a CNAME; BIND never checks (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (p : Dnsmodel.Record.t) ->
             match p.rdata with
             | Dnsmodel.Record.Ptr target ->
               let target = Dnsmodel.Name.normalize target in
               if
                 List.exists
                   (fun (c : Dnsmodel.Record.t) ->
                     c.owner = target && Dnsmodel.Record.rtype c = "CNAME")
                   records
               then begin
                 let file, path = bd_anchor set decls p in
                 [
                   raw ~file ~path
                     (Printf.sprintf
                        "PTR target %s is an alias (CNAME), not a canonical name"
                        target);
                 ]
               end
               else []
             | _ -> [])
           records))

let bd_ptr_nofwd =
  Rule.make ~id:"BD-PTR-NOFWD" ~severity:Finding.Warning
    ~doc:"a PTR target should own an address record; BIND never checks (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (p : Dnsmodel.Record.t) ->
             match p.rdata with
             | Dnsmodel.Record.Ptr target ->
               let target = Dnsmodel.Name.normalize target in
               let owns rtype =
                 List.exists
                   (fun (r : Dnsmodel.Record.t) ->
                     r.owner = target && Dnsmodel.Record.rtype r = rtype)
                   records
               in
               (* the alias case is BD-PTR-ALIAS's *)
               if owns "A" || owns "CNAME" then []
               else begin
                 let file, path = bd_anchor set decls p in
                 [
                   raw ~file ~path
                     (Printf.sprintf "PTR %s points at %s, which has no address \
                                      record" p.owner target);
                 ]
               end
             | _ -> [])
           records))

let bd_cname_chain =
  Rule.make ~id:"BD-CNAME-CHAIN" ~severity:Finding.Warning
    ~doc:"a CNAME chaining to another CNAME is slow and fragile; BIND loads it (gap)"
    (bd_with_records
       (fun set decls records ->
         List.concat_map
           (fun (c : Dnsmodel.Record.t) ->
             match c.rdata with
             | Dnsmodel.Record.Cname target ->
               let target = Dnsmodel.Name.normalize target in
               if
                 List.exists
                   (fun (r : Dnsmodel.Record.t) ->
                     r.owner = target && Dnsmodel.Record.rtype r = "CNAME")
                   records
               then begin
                 let file, path = bd_anchor set decls c in
                 [
                   raw ~file ~path
                     (Printf.sprintf "CNAME chain: %s points at %s, itself an alias"
                        c.owner target);
                 ]
               end
               else []
             | _ -> [])
           records))

let bind =
  [
    bd_conf;
    bd_dangling;
    bd_unused;
    bd_load;
    bd_zone_checks;
    bd_soa_at_apex;
    bd_ptr_missing;
    bd_ptr_alias;
    bd_ptr_nofwd;
    bd_cname_chain;
  ]

(* ------------------------------------------------------------------ *)
(* djbdns                                                               *)
(* ------------------------------------------------------------------ *)

let dj_file = Mini_djbdns.data_file

(* tinydns-data's compilation of the data file, once per set for DJ-DATA
   and the record rules. *)
let dj_decode =
  Rule.view (fun subject ->
      match Config_set.find (Rule.config subject) dj_file with
      | None -> Error [ raw ~file:dj_file ~path:[] "data file not found" ]
      | Some tree -> (
        let codec = Dnsmodel.Codec.tinydns ~file:dj_file in
        match codec.Dnsmodel.Codec.decode (Config_set.of_list [ (dj_file, tree) ]) with
        | Error msg ->
          Error [ raw ~file:dj_file ~path:[] (Printf.sprintf "tinydns-data: %s" msg) ]
        | Ok records -> Ok records))

(* Anchor on the data line whose name field resolves to [owner]. *)
let dj_path set ~owner =
  match Config_set.find set dj_file with
  | None -> []
  | Some tree ->
    let found = ref None in
    List.iteri
      (fun i (n : Node.t) ->
        if
          !found = None
          && n.kind = Node.kind_record
          && Dnsmodel.Name.normalize n.name = owner
        then found := Some [ i ])
      tree.children;
    Option.value ~default:[] !found

let dj_with_records f =
  Rule.Check_set
    (fun subject ->
      match Rule.read subject dj_decode with
      | Error _ -> []
      | Ok records -> f (Rule.config subject) records)

let dj_data =
  Rule.make ~id:"DJ-DATA" ~severity:Finding.Error
    ~doc:"tinydns-data compiles the file: operator and field syntax (agreement)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject dj_decode with Error raws -> raws | Ok _ -> []))

let dj_owns records owner rtype =
  List.exists
    (fun (r : Dnsmodel.Record.t) -> r.owner = owner && Dnsmodel.Record.rtype r = rtype)
    records

let dj_collision =
  Rule.make ~id:"DJ-COLLISION" ~severity:Finding.Error
    ~doc:
      "a name owning a CNAME and other data violates RFC 1034; tinydns publishes \
       it without a word (gap)"
    (dj_with_records
       (fun set records ->
         let seen = ref [] in
         List.concat_map
           (fun (c : Dnsmodel.Record.t) ->
             match c.rdata with
             | Dnsmodel.Record.Cname _ ->
               if List.mem c.owner !seen then []
               else begin
                 seen := c.owner :: !seen;
                 let other =
                   List.exists
                     (fun (r : Dnsmodel.Record.t) ->
                       r.owner = c.owner && Dnsmodel.Record.rtype r <> "CNAME")
                     records
                 in
                 if other then
                   [
                     raw ~file:dj_file ~path:(dj_path set ~owner:c.owner)
                       (Printf.sprintf
                          "%s owns a CNAME and other data (RFC 1034 §3.6.2); \
                           tinydns publishes both"
                          c.owner);
                   ]
                 else []
               end
             | _ -> [])
           records))

let dj_alias_target ~what records set (r : Dnsmodel.Record.t) target =
  let target = Dnsmodel.Name.normalize target in
  if dj_owns records target "CNAME" then
    [
      raw ~file:dj_file ~path:(dj_path set ~owner:r.owner)
        (Printf.sprintf "%s target %s of %s is an alias (CNAME); tinydns never \
                         checks" what target r.owner);
    ]
  else []

let dj_alias =
  Rule.make ~id:"DJ-ALIAS" ~severity:Finding.Error
    ~doc:"NS and MX targets must be canonical names; tinydns never checks (gap)"
    (dj_with_records
       (fun set records ->
         List.concat_map
           (fun (r : Dnsmodel.Record.t) ->
             match r.rdata with
             | Dnsmodel.Record.Ns t -> dj_alias_target ~what:"NS" records set r t
             | Dnsmodel.Record.Mx (_, t) -> dj_alias_target ~what:"MX" records set r t
             | _ -> [])
           records))

let dj_chain =
  Rule.make ~id:"DJ-CHAIN" ~severity:Finding.Warning
    ~doc:"CNAME chains resolve slowly or not at all; tinydns never checks (gap)"
    (dj_with_records
       (fun set records ->
         List.concat_map
           (fun (c : Dnsmodel.Record.t) ->
             match c.rdata with
             | Dnsmodel.Record.Cname t ->
               let t = Dnsmodel.Name.normalize t in
               if dj_owns records t "CNAME" then
                 [
                   raw ~file:dj_file ~path:(dj_path set ~owner:c.owner)
                     (Printf.sprintf "CNAME chain: %s points at %s, itself an alias"
                        c.owner t);
                 ]
               else []
             | _ -> [])
           records))

let dj_nosoa =
  Rule.make ~id:"DJ-NOSOA" ~severity:Finding.Warning
    ~doc:
      "a record under no SOA apex is served non-authoritatively; tinydns-data \
       compiles it without a word (gap)"
    (dj_with_records
       (fun set records ->
         let apexes =
           List.filter_map
             (fun (r : Dnsmodel.Record.t) ->
               if Dnsmodel.Record.rtype r = "SOA" then Some r.owner else None)
             records
         in
         let seen = ref [] in
         List.concat_map
           (fun (r : Dnsmodel.Record.t) ->
             let covered =
               List.exists
                 (fun apex -> Dnsmodel.Name.in_domain ~domain:apex r.owner)
                 apexes
             in
             if covered || List.mem r.owner !seen then []
             else begin
               seen := r.owner :: !seen;
               [
                 raw ~file:dj_file ~path:(dj_path set ~owner:r.owner)
                   (Printf.sprintf
                      "%s is under no SOA apex; tinydns serves it \
                       non-authoritatively"
                      r.owner);
               ]
             end)
           records))

let djbdns = [ dj_data; dj_collision; dj_alias; dj_chain; dj_nosoa ]

(* ------------------------------------------------------------------ *)
(* Application server                                                   *)
(* ------------------------------------------------------------------ *)

let as_file = "server.xml"

let as_element =
  Rule.make ~id:"AS-ELEMENT" ~severity:Finding.Error
    ~doc:
      "an element the server does not know is silently skipped, subtree and all \
       (gap)"
    (Rule.Unknown
       {
         target = Rule.in_file as_file;
         kind = Node.kind_element;
         known = (fun n -> List.mem (String.lowercase_ascii n) Mini_appserver.known_elements);
         vocabulary = Mini_appserver.known_elements;
         what = "element";
       })

(* The server's startup checks over server.xml (Mini_appserver.check):
   every problem, and what a server that starts runs with.  [None]
   without server.xml.  One walk per set, read by the three AS-* set
   rules. *)
let as_check =
  Rule.view (fun subject ->
      Option.map
        (fun root -> Sut.all_problems (fun report -> Mini_appserver.check report root))
        (Config_set.find (Rule.config subject) as_file))

let as_attr =
  Rule.make ~id:"AS-ATTR" ~severity:Finding.Error
    ~doc:"attributes of known elements are strictly validated (agreement)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject as_check with
         | None -> [ raw ~file:as_file ~path:[] "server.xml not found" ]
         | Some (problems, _) -> List.map of_problem problems))

let as_noconn =
  Rule.make ~id:"AS-NOCONN" ~severity:Finding.Error
    ~doc:"at least one connector must be configured (agreement)"
    (Rule.Check_set
       (fun subject ->
         match
           Option.map (fun (_, st) -> Mini_appserver.connected st)
             (Rule.read subject as_check)
         with
         | Some (Error m) -> [ raw ~file:as_file ~path:[] m ]
         | Some (Ok ()) | None -> []))

let as_functional =
  Rule.make ~id:"AS-FUNCTIONAL" ~severity:Finding.Warning
    ~doc:
      "the HTTP probe GETs port 8080 and expects appBase /srv/webapps with a \
       default application (gap: survives startup)"
    (Rule.Check_set
       (fun subject ->
         match Rule.read subject as_check with
         | None -> []
         | Some (_, st) ->
           let out = ref [] in
           let emit path m = out := raw ~file:as_file ~path m :: !out in
           if st.connector_ports <> [] && not (List.mem 8080 st.connector_ports) then
             emit
               (Option.value ~default:[] st.first_connector)
               (Printf.sprintf
                  "the HTTP probe connects to port 8080; connectors listen on: %s"
                  (String.concat "," (List.map string_of_int st.connector_ports)));
           let host = Option.value ~default:[] st.host_at in
           if st.app_base <> "/srv/webapps" then
             emit host
               (Printf.sprintf
                  "404 predicted: appBase %S has no applications (the probe expects \
                   /srv/webapps)"
                  st.app_base);
           if st.default_app = "" then
             emit host "404 predicted: no default application deployed";
           List.rev !out))

let appserver = [ as_element; as_attr; as_noconn; as_functional ]

(* ------------------------------------------------------------------ *)

let all =
  [
    ("postgres", postgres);
    ("mysql", mysql);
    ("apache", apache);
    ("bind", bind);
    ("djbdns", djbdns);
    ("appserver", appserver);
  ]

let for_sut name = List.assoc_opt name all

(* Distinct rule ids of a set, first-appearance order.  Ids repeat only
   where one constraint is stated per directive: PG-VALUE per parameter
   spec, PG-REQUIRED per stock directive, AP-MIME for DefaultType and
   AddType. *)
let ids rules =
  List.rev
    (List.fold_left
       (fun acc (r : Conferr_lint.Rule.t) ->
         if List.mem r.id acc then acc else r.id :: acc)
       [] rules)
