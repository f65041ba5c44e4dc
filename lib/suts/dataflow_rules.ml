module Rule = Conferr_lint.Rule
module Finding = Conferr_lint.Finding
module Dataflow = Conferr_lint.Dataflow
module Refgraph = Conferr_lint.Refgraph
module Node = Conftree.Node
module Config_set = Conftree.Config_set

let raw ?suggestion ~file ~path message =
  {
    Rule.raw_file = file;
    raw_path = path;
    raw_message = message;
    raw_suggestion = suggestion;
  }

(* ------------------------------------------------------------------ *)
(* PostgreSQL: abstract values read with the server's own parsers.  Its
   cross-parameter constraints are base rules (Lint_rules.for_sut). *)

let pg_specs =
  List.map
    (fun (name, sp) ->
      match (Mini_pg.number sp, sp) with
      | Some n, _ ->
        Dataflow.num
          ~read:(fun v -> Result.to_option (n.parse name v))
          ~lo:n.lo ~hi:n.hi ~default:n.default name
      | None, Mini_pg.Pbool _ -> Dataflow.boolean name
      | None, Mini_pg.Penum (allowed, _) -> Dataflow.enum name allowed
      | None, _ -> Dataflow.str name)
    Mini_pg.specs

(* ------------------------------------------------------------------ *)
(* Apache: the keep-alive ordering constraint httpd itself never
   checks, plus cross-file shadowing of set-once directives. *)

let ap_rel_keepalive =
  Rule.make ~id:"AP-REL-KEEPALIVE" ~severity:Finding.Warning
    ~doc:
      "KeepAliveTimeout above Timeout is ineffective; httpd accepts it \
       silently (gap)"
    (Rule.Relation
       {
         target = Rule.top_level;
         canon = Rule.lower;
         op = Rule.Rle;
         lhs =
           Rule.linexp
             [
               Rule.term ~read:Dataflow.read_count ~default:15
                 "keepalivetimeout";
             ];
         rhs =
           Rule.linexp
             [ Rule.term ~read:Dataflow.read_count ~default:300 "timeout" ];
         describe = "KeepAliveTimeout <= Timeout";
         per_file = false;
         harvest = None;
       })

(* Directives with set-once (last-one-wins) semantics; a second
   definition in another file silently shadows the first.  Additive
   directives (Listen, AddType, LoadModule, ...) are excluded. *)
let ap_singletons =
  [
    "timeout";
    "keepalivetimeout";
    "keepalive";
    "maxkeepaliverequests";
    "maxclients";
    "serverlimit";
    "servername";
    "serveradmin";
    "serverroot";
    "documentroot";
    "defaulttype";
    "directoryindex";
    "errorlog";
    "loglevel";
    "pidfile";
  ]

let ap_xfile =
  Rule.make ~id:"AP-XFILE" ~severity:Finding.Warning
    ~doc:
      "a set-once directive defined in several files is silently \
       last-one-wins (gap)"
    (Rule.Check_set
       (fun subject ->
         Config_set.cross_file_duplicates ~kind:Node.kind_directive
           ~canon:Rule.lower (Rule.config subject)
         |> List.concat_map (fun (name, occs) ->
                if not (List.mem name ap_singletons) then []
                else
                  match List.rev occs with
                  | [] -> []
                  | (last_file, _) :: shadowed ->
                    List.rev_map
                      (fun (file, path) ->
                        raw ~file ~path
                          (Printf.sprintf
                             "directive '%s' is shadowed by a later \
                              definition in '%s'; only the last one takes \
                              effect"
                             name last_file))
                      shadowed)))

let ap_specs =
  [
    Dataflow.num ~read:Dataflow.read_count ~lo:0 ~hi:max_int ~default:300
      "timeout";
    Dataflow.num ~read:Dataflow.read_count ~lo:0 ~hi:max_int ~default:15
      "keepalivetimeout";
    Dataflow.num ~read:Dataflow.read_count ~lo:1 ~hi:max_int ~default:256
      "maxclients";
    Dataflow.boolean "keepalive";
  ]

(* ------------------------------------------------------------------ *)
(* BIND: SOA timer ordering (RFC 1912 §2.2 — named loads the zone
   without a word either way) and the zone-declaration reference
   graph. *)

(* BIND TTL syntax: concatenated <num><unit> groups (1d12h); a bare
   number is seconds. *)
let bd_ttl v =
  let v = String.lowercase_ascii (String.trim v) in
  let n = String.length v in
  if n = 0 then None
  else
    let rec go i acc =
      if i >= n then Some acc
      else
        let rec digits j =
          if j < n && match v.[j] with '0' .. '9' -> true | _ -> false then
            digits (j + 1)
          else j
        in
        let j = digits i in
        if j = i then None
        else
          match int_of_string_opt (String.sub v i (j - i)) with
          | None -> None
          | Some num when j >= n -> Some (acc + num)
          | Some num -> (
            let mult =
              match v.[j] with
              | 's' -> Some 1
              | 'm' -> Some 60
              | 'h' -> Some 3600
              | 'd' -> Some 86400
              | 'w' -> Some 604800
              | _ -> None
            in
            match mult with
            | None -> None
            | Some m -> go (j + 1) (acc + (num * m)))
    in
    go 0 0

(* SOA rdata: mname rname ( serial refresh retry expire minimum ) —
   all-or-nothing so a relation never mixes real and default timers. *)
let bd_soa_fields rdata =
  let tokens =
    String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) rdata)
    |> List.concat_map (fun t ->
           match String.trim t with "" | "(" | ")" -> [] | t -> [ t ])
  in
  match tokens with
  | [ _mname; _rname; _serial; refresh; retry; expire; _minimum ] -> (
    match (bd_ttl refresh, bd_ttl retry, bd_ttl expire) with
    | Some _, Some _, Some _ -> Some (refresh, retry, expire)
    | _ -> None)
  | _ -> None

let bd_soa_harvest _file (root : Node.t) =
  List.concat
    (List.mapi
       (fun i (n : Node.t) ->
         if
           n.kind = Node.kind_record
           && String.uppercase_ascii
                (Option.value ~default:"" (Node.attr n "type"))
              = "SOA"
         then
           match bd_soa_fields (Node.value_or ~default:"" n) with
           | Some (refresh, retry, expire) ->
             [
               ("soa-refresh", [ i ], refresh);
               ("soa-retry", [ i ], retry);
               ("soa-expire", [ i ], expire);
             ]
           | None -> []
         else [])
       root.children)

let bd_rel_retry =
  Rule.make ~id:"BD-REL-RETRY" ~severity:Finding.Warning
    ~doc:
      "the SOA retry interval should be shorter than the refresh \
       interval; named loads the zone regardless (gap)"
    (Rule.Relation
       {
         target = Rule.anywhere;
         canon = Rule.lower;
         op = Rule.Rlt;
         lhs =
           Rule.linexp
             [ Rule.term ~unit_label:"ms" ~read:bd_ttl ~default:3600 "soa-retry" ];
         rhs =
           Rule.linexp
             [
               Rule.term ~unit_label:"ms" ~read:bd_ttl ~default:10800
                 "soa-refresh";
             ];
         describe = "SOA retry < refresh";
         per_file = true;
         harvest = Some bd_soa_harvest;
       })

let bd_rel_expire =
  Rule.make ~id:"BD-REL-EXPIRE" ~severity:Finding.Warning
    ~doc:
      "the SOA expire interval should exceed the refresh interval; named \
       loads the zone regardless (gap)"
    (Rule.Relation
       {
         target = Rule.anywhere;
         canon = Rule.lower;
         op = Rule.Rgt;
         lhs =
           Rule.linexp
             [
               Rule.term ~unit_label:"ms" ~read:bd_ttl ~default:604800
                 "soa-expire";
             ];
         rhs =
           Rule.linexp
             [
               Rule.term ~unit_label:"ms" ~read:bd_ttl ~default:10800
                 "soa-refresh";
             ];
         describe = "SOA expire > refresh";
         per_file = true;
         harvest = Some bd_soa_harvest;
       })

(* One reference edge per zone declaration: named.conf to its file. *)
let bd_edges_of decls =
  List.map
    (fun (d : Mini_bind.zone_decl) ->
      {
        Refgraph.e_file = "named.conf";
        e_path = d.file_site;
        e_what = "zone file";
        e_target = d.zone_file;
      })
    decls

(* The zone declarations as named reads them (Mini_bind.read_named_conf),
   problems aside. *)
let bd_zone_edges set =
  match Config_set.find set "named.conf" with
  | None -> []
  | Some root -> bd_edges_of (Mini_bind.read_named_conf ignore root)

let bd_graph =
  Rule.make ~id:"BD-GRAPH" ~severity:Finding.Warning
    ~doc:
      "two zone declarations serving one master file silently answer \
       from the same data (gap)"
    (Rule.Check_set
       (fun subject ->
         (* the base rules' reading of named.conf, not a second one *)
         let edges = bd_edges_of (snd (Rule.read subject Lint_rules.named_conf)) in
         let targets =
           List.fold_left
             (fun acc (e : Refgraph.edge) ->
               if List.mem e.e_target acc then acc else acc @ [ e.e_target ])
             [] edges
         in
         List.concat_map
           (fun target ->
             match
               List.filter
                 (fun (e : Refgraph.edge) -> e.e_target = target)
                 edges
             with
             | _ :: _ :: _ as multi ->
               List.map
                 (fun (e : Refgraph.edge) ->
                   raw ~file:e.e_file ~path:e.e_path
                     (Printf.sprintf
                        "zone file '%s' is declared by %d zones; they are \
                         served from the same master data"
                        target (List.length multi)))
                 multi
             | _ -> [])
           targets))

(* ------------------------------------------------------------------ *)
(* MySQL: silent-default taint — the written value the quirky parsers
   would silently replace with the built-in default. *)

let my_read parse (b : Mini_mysql.bounds) v =
  match parse ~default:b.Mini_mysql.default ~min:b.min ~max:b.max v with
  | Mini_mysql.Accepted n -> Some (Int64.to_int n)
  | Mini_mysql.Defaulted | Mini_mysql.Rejected _ -> None

let my_specs =
  List.filter_map
    (fun (name, sp) ->
      match sp with
      | Mini_mysql.Size b ->
        Some
          (Dataflow.num ~lenient:true
             ~read:(my_read Mini_mysql.parse_size b)
             ~lo:min_int ~hi:max_int
             ~default:(Int64.to_int b.Mini_mysql.default)
             name)
      | Mini_mysql.Int b ->
        Some
          (Dataflow.num ~lenient:true
             ~read:(my_read Mini_mysql.parse_int b)
             ~lo:min_int ~hi:max_int
             ~default:(Int64.to_int b.Mini_mysql.default)
             name)
      | Mini_mysql.Bool _ -> Some (Dataflow.boolean name)
      | Mini_mysql.Path_existing _ | Mini_mysql.Path_any _ ->
        Some (Dataflow.str name)
      | Mini_mysql.Flag -> None)
    Mini_mysql.mysqld_specs

let my_taint =
  Dataflow.taint_rule ~id:"MY-TAINT" ~canon:Mini_mysql.fold_dashes
    ~specs:my_specs
    "a value the quirky numeric parsers silently replace with the \
     built-in default (gap)"

(* ------------------------------------------------------------------ *)
(* Registry *)

let canon = function
  | "mysql" -> Mini_mysql.fold_dashes
  | _ -> Rule.lower

let specs = function
  | "postgres" -> pg_specs
  | "apache" -> ap_specs
  | "mysql" -> my_specs
  | _ -> []

let edges sut set = match sut with "bind" -> bd_zone_edges set | _ -> []

let deep_rules = function
  | "apache" -> [ ap_rel_keepalive; ap_xfile ]
  | "bind" -> [ bd_rel_retry; bd_rel_expire; bd_graph ]
  | "mysql" -> [ my_taint ]
  | _ -> []

let deepen sut base = base @ deep_rules sut

let is_relation (r : Rule.t) =
  match r.Rule.body with Rule.Relation _ -> true | _ -> false

let dataflow_ids sut =
  let base = Option.value ~default:[] (Lint_rules.for_sut sut) in
  List.sort_uniq compare
    (List.map (fun (r : Rule.t) -> r.Rule.id)
       (List.filter is_relation base @ deep_rules sut))
