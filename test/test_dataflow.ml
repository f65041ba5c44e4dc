(* Corpus-level analysis (ISSUE 10): the abstract lattice is sound on
   the stock sets (concretization contains the value the SUT runs
   with), every stock configuration analyzes clean under the deepened
   rule set, the paper's pg cross-parameter fault is caught statically
   as a relation violation naming both ConfPaths where the base linter
   misses it, relation rules round-trip through the rule-file format
   (with malformed inputs rejected), the deep scan is byte-identical
   for any --jobs, silent acceptances predicted by gap-claiming rules
   reclassify as agreements, and the reference graph finds cycles. *)

module Engine = Conferr.Engine
module Finding = Conferr_lint.Finding
module Rule = Conferr_lint.Rule
module Rule_file = Conferr_lint.Rule_file
module Checker = Conferr_lint.Checker
module Gap = Conferr_lint.Gap
module Absval = Conferr_lint.Absval
module Dataflow = Conferr_lint.Dataflow
module Refgraph = Conferr_lint.Refgraph
module Sarif = Conferr_lint.Sarif
module Df_rules = Suts.Dataflow_rules

let all_suts =
  [
    Suts.Mini_pg.sut;
    Suts.Mini_mysql.sut;
    Suts.Mini_apache.sut;
    Suts.Mini_bind.sut;
    Suts.Mini_djbdns.sut;
    Suts.Mini_appserver.sut;
  ]

let nearest = Conferr.Suggest.nearest

let stock_set (sut : Suts.Sut.t) =
  match Engine.parse_default_config sut with
  | Ok set -> set
  | Error msg -> Alcotest.failf "%s: %s" sut.sut_name msg

let deep_rules_of (sut : Suts.Sut.t) =
  match Suts.Lint_rules.for_sut sut.sut_name with
  | Some rules -> Df_rules.deepen sut.sut_name rules
  | None -> Alcotest.failf "no rule set for %s" sut.sut_name

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Substitute one directive's value in a stock text, line-oriented. *)
let set_value text name value =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let prefix = name ^ " = " in
         if
           String.length line >= String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
         then prefix ^ value
         else line)
  |> String.concat "\n"

let pg_with assignments =
  let sut = Suts.Mini_pg.sut in
  let text =
    List.fold_left
      (fun t (n, v) -> set_value t n v)
      (List.assoc "postgresql.conf" sut.default_config)
      assignments
  in
  match Engine.parse_config sut [ ("postgresql.conf", text) ] with
  | Ok set -> set
  | Error msg -> Alcotest.failf "pg parse: %s" msg

(* 1. Zero findings on every stock configuration set. *)
let test_stock_clean () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      let findings =
        Checker.run ~nearest ~rules:(deep_rules_of sut) (stock_set sut)
      in
      Alcotest.(check int)
        (sut.sut_name ^ " stock analyzes clean")
        0 (List.length findings))
    all_suts

(* 2. Soundness on stock: every binding's abstract value contains the
   concrete value the SUT runs with, and none is tainted. *)
let test_stock_soundness () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      let env =
        Dataflow.env_of_set
          ~specs:(Df_rules.specs sut.sut_name)
          ~canon:(Df_rules.canon sut.sut_name)
          (stock_set sut)
      in
      List.iter
        (fun (b : Dataflow.binding) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s abstract value contains %S" sut.sut_name
               b.b_name b.b_effective)
            true
            (Absval.contains_string b.b_abs b.b_effective);
          Alcotest.(check bool)
            (sut.sut_name ^ ": " ^ b.b_name ^ " untainted")
            true
            (b.b_taint = Dataflow.T_explicit))
        env)
    all_suts

(* 3. QCheck: for random in-range pairs, PG-REL-FSM fires exactly when
   the relation is violated — no false positives on valid pairs. *)
let prop_fsm_relation =
  QCheck2.Test.make ~count:100
    ~name:"dataflow: PG-REL-FSM fires iff max_fsm_pages < 16 * relations"
    QCheck2.Gen.(pair (int_range 1000 200000) (int_range 100 12500))
    (fun (pages, relations) ->
      let set =
        pg_with
          [
            ("max_fsm_pages", string_of_int pages);
            ("max_fsm_relations", string_of_int relations);
          ]
      in
      let findings =
        Checker.run ~nearest ~rules:(deep_rules_of Suts.Mini_pg.sut) set
      in
      let fired =
        List.exists (fun f -> f.Finding.rule_id = "PG-REL-FSM") findings
      in
      fired = (pages < 16 * relations))

(* 4. QCheck soundness: random in-range pg values keep the lattice
   sound — the abstract value of each binding contains the effective
   value and explicit in-range values are never tainted. *)
let prop_pg_soundness =
  QCheck2.Test.make ~count:100
    ~name:"dataflow: abstract env stays sound on random in-range pg values"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 100 10000))
    (fun (conns, relations) ->
      let set =
        pg_with
          [
            ("max_connections", string_of_int conns);
            ("max_fsm_relations", string_of_int relations);
          ]
      in
      let env =
        Dataflow.env_of_set ~specs:(Df_rules.specs "postgres")
          ~canon:(Df_rules.canon "postgres") set
      in
      env <> []
      && List.for_all
           (fun (b : Dataflow.binding) ->
             Absval.contains_string b.b_abs b.b_effective)
           env)

(* 5. The paper's cross-parameter fault: both values individually in
   range, mutually inconsistent.  The strongest *serializable* rule the
   mined format could previously express — implies-present over the
   pair — misses it (both directives are present), while the relation
   rule reports it with BOTH ConfPaths. *)
let cross_fault_set () =
  pg_with
    [ ("max_fsm_pages", "1500"); ("max_fsm_relations", "20000") ]

let test_cross_fault_static () =
  let set = cross_fault_set () in
  let mined_rule =
    Rule_file.to_rule
      {
        Rule_file.id = "M-CROSS";
        severity = Finding.Warning;
        doc = "configured (and failing) together";
        claim = Rule.Agreement;
        body =
          Rule_file.F_implies_present
            {
              file = Some "postgresql.conf";
              section = None;
              names = [ "max_fsm_pages"; "max_fsm_relations" ];
            };
      }
  in
  Alcotest.(check int) "the pre-relation mined rule misses the cross fault" 0
    (List.length (Checker.run ~nearest ~rules:[ mined_rule ] set));
  let deep = Checker.run ~nearest ~rules:(deep_rules_of Suts.Mini_pg.sut) set in
  match List.filter (fun f -> f.Finding.rule_id = "PG-REL-FSM") deep with
  | [ f ] ->
    Alcotest.(check string) "anchored at max_fsm_pages" "/max_fsm_pages"
      f.Finding.address;
    Alcotest.(check (list (pair string string)))
      "related carries the second ConfPath"
      [ ("postgresql.conf", "/max_fsm_relations") ]
      f.Finding.related;
    Alcotest.(check bool) "message names the relation" true
      (contains ~needle:"max_fsm_pages >= 16 * max_fsm_relations"
         f.Finding.message)
  | fs -> Alcotest.failf "expected one PG-REL-FSM finding, got %d" (List.length fs)

(* 6. Determinism: a per-rule parallel shard merged with the standard
   comparator equals the sequential run, byte for byte. *)
let test_jobs_byte_identical () =
  let set = cross_fault_set () in
  let rules = deep_rules_of Suts.Mini_pg.sut in
  let file_order = [ "postgresql.conf" ] in
  let seq =
    List.sort_uniq
      (Finding.compare ~file_order)
      (Checker.run ~nearest ~rules set)
  in
  let par =
    Conferr_pool.map ~jobs:4
      (fun _ rule -> Checker.run ~nearest ~rules:[ rule ] set)
      (Array.of_list rules)
    |> Array.to_list |> List.concat
    |> List.sort_uniq (Finding.compare ~file_order)
  in
  Alcotest.(check string)
    "jobs 1 and jobs 4 render byte-identically"
    (Checker.render_text seq) (Checker.render_text par);
  Alcotest.(check string)
    "and serialize byte-identically"
    (Conferr_obsv.Json.to_string (Checker.to_json seq))
    (Conferr_obsv.Json.to_string (Checker.to_json par))

(* 8. Relation rules round-trip through the rule-file format, and the
   compiled rule actually checks. *)
let relation_spec =
  {
    Rule_file.id = "T-REL";
    severity = Finding.Error;
    doc = "pages at least 16x relations";
    claim = Rule.Agreement;
    body =
      Rule_file.F_relation
        {
          file = Some "postgresql.conf";
          section = None;
          op = Rule.Rge;
          lhs =
            {
              Rule_file.fl_const = 0;
              fl_terms =
                [
                  {
                    Rule_file.ft_coeff = 1;
                    ft_name = "max_fsm_pages";
                    ft_unit = "count";
                    ft_default = 153600;
                  };
                ];
            };
          rhs =
            {
              Rule_file.fl_const = 0;
              fl_terms =
                [
                  {
                    Rule_file.ft_coeff = 16;
                    ft_name = "max_fsm_relations";
                    ft_unit = "count";
                    ft_default = 1000;
                  };
                ];
            };
          per_file = false;
        };
  }

let test_rule_file_roundtrip () =
  let text = Rule_file.save ~sut:"postgres" [ relation_spec ] in
  (match Rule_file.load text with
  | Error msg -> Alcotest.failf "reload failed: %s" msg
  | Ok [ spec ] ->
    Alcotest.(check bool) "round-trips structurally" true (spec = relation_spec)
  | Ok specs -> Alcotest.failf "expected 1 spec, got %d" (List.length specs));
  let rule = Rule_file.to_rule relation_spec in
  let findings = Checker.run ~nearest ~rules:[ rule ] (cross_fault_set ()) in
  (match findings with
  | [ f ] ->
    Alcotest.(check string) "compiled relation fires" "T-REL" f.Finding.rule_id;
    Alcotest.(check bool) "both sites reported" true (f.Finding.related <> [])
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  Alcotest.(check int) "compiled relation passes stock" 0
    (List.length
       (Checker.run ~nearest ~rules:[ rule ] (stock_set Suts.Mini_pg.sut)))

let test_rule_file_rejects_malformed () =
  let mk body_fields =
    Printf.sprintf
      {|{"conferr_rules":1,"rules":[{"id":"X","severity":"error","doc":"d","claim":"agreement","body":{"kind":"relation",%s}}]}|}
      body_fields
  in
  let term = {|{"coeff":1,"name":"a","unit":"count","default":0}|} in
  List.iter
    (fun (label, text) ->
      match Rule_file.load text with
      | Ok _ -> Alcotest.failf "%s: malformed relation accepted" label
      | Error _ -> ())
    [
      ( "unknown op",
        mk
          (Printf.sprintf
             {|"op":"~=","lhs":{"const":0,"terms":[%s]},"rhs":{"const":1,"terms":[]}|}
             term) );
      ( "unknown unit",
        mk
          {|"op":"<=","lhs":{"const":0,"terms":[{"coeff":1,"name":"a","unit":"furlongs","default":0}]},"rhs":{"const":1,"terms":[]}|} );
      ( "no terms on either side",
        mk {|"op":"<=","lhs":{"const":0,"terms":[]},"rhs":{"const":1,"terms":[]}|} );
    ]

(* 8b. A relation term reads its default both when its directive is
   absent and when the term's reader rejects the written value; the
   verdict follows those defaults, and the finding's detail marks each
   defaulted term. *)
let test_relation_defaults () =
  let rule op =
    Rule.make ~id:"T-REL-DEFAULT" ~severity:Finding.Warning
      ~doc:"max_connections against an absent directive"
      (Rule.Relation
         {
           target = Rule.top_level;
           canon = Rule.lower;
           op;
           lhs =
             Rule.linexp
               [
                 Rule.term ~read:Dataflow.read_count ~default:100
                   "max_connections";
               ];
           rhs =
             Rule.linexp
               [ Rule.term ~read:Dataflow.read_count ~default:50 "no_such_knob" ];
           describe = "max_connections vs no_such_knob";
           per_file = false;
           harvest = None;
         })
  in
  let findings op set = Checker.run ~nearest ~rules:[ rule op ] set in
  let unreadable = pg_with [ ("max_connections", "lots") ] in
  (match findings Rule.Rle unreadable with
   | [ f ] ->
     Alcotest.(check string) "both terms read their default"
       "relation violated: max_connections vs no_such_knob (max_connections \
        = 100 (default), no_such_knob = 50 (default))"
       f.Finding.message;
     Alcotest.(check string) "anchored at the unreadable directive"
       "/max_connections" f.Finding.address;
     Alcotest.(check (list (pair string string)))
       "the absent directive has no site" [] f.Finding.related
   | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  Alcotest.(check int) "100 >= 50 from the defaults holds" 0
    (List.length (findings Rule.Rge unreadable));
  Alcotest.(check int) "a readable 10 <= default 50 holds" 0
    (List.length (findings Rule.Rle (pg_with [ ("max_connections", "10") ])))

(* 9. Silent-default taint: a mysql value the lenient parser masks is
   reported, and the environment carries the taint. *)
let test_mysql_taint () =
  let sut = Suts.Mini_mysql.sut in
  let text =
    set_value (List.assoc "my.cnf" sut.default_config) "sort_buffer_size"
      "banana"
  in
  let set =
    match Engine.parse_config sut [ ("my.cnf", text) ] with
    | Ok set -> set
    | Error msg -> Alcotest.failf "mysql parse: %s" msg
  in
  let findings = Checker.run ~nearest ~rules:(deep_rules_of sut) set in
  (* exactly one binding is tainted: the masked directive *)
  (match List.filter (fun (f : Finding.t) -> f.rule_id = "MY-TAINT") findings with
   | [ f ] ->
     Alcotest.(check bool) "the masked directive" true
       (contains ~needle:"of 'sort_buffer_size'" f.message)
   | fs -> Alcotest.failf "%d MY-TAINT findings" (List.length fs));
  Alcotest.(check bool) "MY-TAINT reported" true
    (List.exists
       (fun f ->
         f.Finding.rule_id = "MY-TAINT"
         && contains ~needle:"silently replaced" f.Finding.message)
       findings)

(* 10. classify_deep: a gap-claiming finding turns a silent acceptance
   into an agreement; everything else is unchanged. *)
let test_classify_deep () =
  Alcotest.(check string) "predicted silent acceptance reclassifies"
    (Gap.kind_label Gap.Agree_detected)
    (Gap.kind_label
       (Gap.classify_deep ~static:(Gap.Flagged Finding.Warning)
          ~gap_claimed:true ~outcome_label:"ignored"));
  Alcotest.(check string) "unpredicted silent acceptance stays"
    (Gap.kind_label Gap.Silent_acceptance)
    (Gap.kind_label
       (Gap.classify_deep ~static:(Gap.Flagged Finding.Warning)
          ~gap_claimed:false ~outcome_label:"ignored"));
  Alcotest.(check string) "non-gap rows are untouched"
    (Gap.kind_label
       (Gap.classify ~static:(Gap.Flagged Finding.Error)
          ~outcome_label:"startup"))
    (Gap.kind_label
       (Gap.classify_deep ~static:(Gap.Flagged Finding.Error)
          ~gap_claimed:true ~outcome_label:"startup"))

(* 11. Reference graph: dangling targets and canonicalized cycles. *)
let test_refgraph () =
  let set =
    Conftree.Config_set.of_list
      [
        ("a.conf", Conftree.Node.root []);
        ("b.conf", Conftree.Node.root []);
        ("c.conf", Conftree.Node.root []);
      ]
  in
  let e file target =
    { Refgraph.e_file = file; e_path = []; e_what = "include"; e_target = target }
  in
  let g =
    Refgraph.build set
      [ e "a.conf" "b.conf"; e "b.conf" "c.conf"; e "c.conf" "a.conf";
        e "a.conf" "missing.conf" ]
  in
  Alcotest.(check int) "one dangling edge" 1 (List.length (Refgraph.dangling g));
  Alcotest.(check int) "one cycle" 1 (List.length (Refgraph.cycles g));
  (match Refgraph.cycles g with
  | [ (first :: _ as cycle) ] ->
    Alcotest.(check string) "rotated to the smallest member" "a.conf" first;
    Alcotest.(check (list string)) "all members present"
      [ "a.conf"; "b.conf"; "c.conf" ]
      (List.sort compare cycle)
  | cs -> Alcotest.failf "unexpected cycles: %d" (List.length cs));
  (* rotation-invariant: same canonical cycle whatever edge order *)
  let g' =
    Refgraph.build set
      [ e "c.conf" "a.conf"; e "a.conf" "b.conf"; e "b.conf" "c.conf" ]
  in
  Alcotest.(check (list (list string))) "canonical under reordering"
    (Refgraph.cycles g) (Refgraph.cycles g');
  Alcotest.(check string) "summary" "reference graph: 3 file(s), 4 edge(s), 1 dangling, 1 cycle(s)"
    (Refgraph.summarize g)

(* 12. SARIF: schema-tagged 2.1.0 with the relation's related location. *)
let test_sarif () =
  let findings =
    Checker.run ~nearest
      ~rules:(deep_rules_of Suts.Mini_pg.sut)
      (cross_fault_set ())
  in
  let sarif = Sarif.render findings in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains ~needle sarif))
    [
      {|"version":"2.1.0"|};
      "sarif-2.1.0";
      {|"ruleId":"PG-REL-FSM"|};
      "relatedLocations";
      "/max_fsm_relations";
    ];
  Alcotest.(check string) "empty findings still render a run"
    sarif (Sarif.render findings);
  Alcotest.(check bool) "clean render has no results" true
    (contains ~needle:{|"results":[]|} (Sarif.render []))

(* 13. The deepened apache profile catches cross-file shadowing. *)
let test_apache_shadowing () =
  let sut = Suts.Mini_apache.sut in
  let extra = List.assoc "ssl.conf" sut.default_config ^ "\nTimeout 10\n" in
  let files =
    List.map
      (fun (n, t) -> if n = "ssl.conf" then (n, extra) else (n, t))
      sut.default_config
  in
  let set =
    match Engine.parse_config sut files with
    | Ok set -> set
    | Error msg -> Alcotest.failf "apache parse: %s" msg
  in
  let findings = Checker.run ~nearest ~rules:(deep_rules_of sut) set in
  Alcotest.(check bool) "AP-XFILE flags the shadowed site" true
    (List.exists
       (fun f ->
         f.Finding.rule_id = "AP-XFILE"
         && contains ~needle:"shadowed" f.Finding.message)
       findings)

(* 14. BD-GRAPH reads zones the way named does, taking each zone's first
   `file` statement: a zone that repeats its own is one declaration, two
   zones sharing one master file are two. *)
let test_bind_shared_master () =
  let sut = Suts.Mini_bind.sut in
  let graph_findings named_conf =
    let files =
      List.map
        (fun (n, t) -> if n = "named.conf" then (n, named_conf) else (n, t))
        sut.default_config
    in
    let set =
      match Engine.parse_config sut files with
      | Ok set -> set
      | Error msg -> Alcotest.failf "bind parse: %s" msg
    in
    Checker.run ~nearest ~rules:(deep_rules_of sut) set
    |> List.filter (fun f -> f.Finding.rule_id = "BD-GRAPH")
  in
  let zone ?(extra = []) origin file =
    String.concat "\n"
      ([ Printf.sprintf "zone \"%s\" IN {" origin; "  type master;";
         Printf.sprintf "  file \"%s\";" file ]
      @ extra @ [ "};" ])
  in
  let conf zones =
    String.concat "\n"
      ([ "options {"; "  directory \"/var/named\";"; "};" ] @ zones @ [ "" ])
  in
  Alcotest.(check int) "a zone repeating its own file statement" 0
    (List.length
       (graph_findings
          (conf
             [
               zone ~extra:[ "  file \"example.com.zone\";" ] "example.com"
                 "example.com.zone";
               zone "0.0.10.in-addr.arpa" "0.0.10.in-addr.arpa.zone";
             ])));
  let shared =
    graph_findings
      (conf
         [
           zone "example.com" "example.com.zone";
           zone "example.org" "example.com.zone";
         ])
  in
  Alcotest.(check (list string)) "two zones sharing one master file"
    [ "zone file 'example.com.zone' is declared by 2 zones; they are served \
       from the same master data";
      "zone file 'example.com.zone' is declared by 2 zones; they are served \
       from the same master data" ]
    (List.map (fun f -> f.Finding.message) shared);
  Alcotest.(check (list string)) "one finding at each zone's file statement"
    [ "/zone[1]/file"; "/zone[2]/file" ]
    (List.map (fun f -> f.Finding.address) shared)

let suite =
  [
    Alcotest.test_case "stock sets analyze clean" `Quick test_stock_clean;
    Alcotest.test_case "stock abstract env is sound and untainted" `Quick
      test_stock_soundness;
    QCheck_alcotest.to_alcotest prop_fsm_relation;
    QCheck_alcotest.to_alcotest prop_pg_soundness;
    Alcotest.test_case "pg cross fault caught statically with both paths"
      `Quick test_cross_fault_static;
    Alcotest.test_case "per-rule sharding is byte-identical" `Quick
      test_jobs_byte_identical;
    Alcotest.test_case "relation rules round-trip the rule file" `Quick
      test_rule_file_roundtrip;
    Alcotest.test_case "malformed relation JSON is rejected" `Quick
      test_rule_file_rejects_malformed;
    Alcotest.test_case "relation terms fall back to their defaults" `Quick
      test_relation_defaults;
    Alcotest.test_case "mysql silent-default taint" `Quick test_mysql_taint;
    Alcotest.test_case "claim-aware gap classification" `Quick
      test_classify_deep;
    Alcotest.test_case "reference graph cycles and dangling" `Quick
      test_refgraph;
    Alcotest.test_case "sarif output" `Quick test_sarif;
    Alcotest.test_case "apache cross-file shadowing" `Quick
      test_apache_shadowing;
    Alcotest.test_case "bind zones sharing a master file" `Quick
      test_bind_shared_master;
  ]
