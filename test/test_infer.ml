(* Constraint inference (ISSUE 7): mining recorded campaigns back into
   lint rules.  The acceptance bar: on the paper faultloads the pipeline
   recovers at least half of the hand-written rule ids for mini_pg and
   mini_bind with zero contradicted rules, and every rendering is
   byte-identical for any jobs count.  Plus unit coverage of the
   config-tree differ, the rule-file codec (emitted rules must lint the
   stock configuration clean), and qcheck properties of the template
   miner. *)

module Engine = Conferr.Engine
module Checker = Conferr_lint.Checker
module Rule_file = Conferr_lint.Rule_file
module Pipeline = Conferr_infer.Pipeline
module Infer_report = Conferr_infer.Infer_report
module Edit = Conferr_infer.Edit
module Template = Conferr_infer.Template
module Node = Conftree.Node
module Config_set = Conftree.Config_set

let nearest = Conferr.Suggest.nearest

let rules_of (sut : Suts.Sut.t) =
  match Suts.Lint_rules.for_sut sut.sut_name with
  | Some rules -> rules
  | None -> Alcotest.failf "no rule set for %s" sut.sut_name

let base_of (sut : Suts.Sut.t) =
  match Engine.parse_default_config sut with
  | Ok b -> b
  | Error m -> Alcotest.failf "%s: %s" sut.sut_name m

(* The scenario sets `conferr infer` regenerates at --seed 42: the paper
   typo faultload, plus the RFC 1912 semantic scenarios for bind. *)
let pg_scenarios base =
  Conferr.Campaign.typo_scenarios
    ~rng:(Conferr_util.Rng.create 42)
    ~faultload:Conferr.Campaign.paper_faultload Suts.Mini_pg.sut base

let bind_scenarios base =
  Conferr.Campaign.typo_scenarios
    ~rng:(Conferr_util.Rng.create 42)
    ~faultload:Conferr.Campaign.paper_faultload Suts.Mini_bind.sut base
  @ (Dnsmodel.Rfc1912.scenarios
       ~codec:(Dnsmodel.Codec.bind ~zones:Suts.Mini_bind.zones)
       ~faults:Dnsmodel.Rfc1912.all_faults base
    |> Errgen.Scenario.relabel_ids ~prefix:"semantic")

let silent (_ : Conferr_exec.Progress.event) = ()

(* Run the campaign once through the real executor + journal codec and
   keep (base, scenarios, entries); each is reused by several tests. *)
let campaign sut scenarios_of =
  lazy
    (let base = base_of sut in
     let scenarios = scenarios_of base in
     let path = Filename.temp_file "conferr_infer_test" ".jsonl" in
     Fun.protect
       ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
       (fun () ->
         let settings =
           {
             Conferr_exec.Executor.default_settings with
             journal_path = Some path;
           }
         in
         let _ =
           Conferr_exec.Executor.run_from ~settings ~on_event:silent ~sut
             ~base ~scenarios ()
         in
         (base, scenarios, Conferr_exec.Journal.load path)))

let pg_campaign = campaign Suts.Mini_pg.sut pg_scenarios
let bind_campaign = campaign Suts.Mini_bind.sut bind_scenarios

let infer ?(jobs = 1) sut (base, scenarios, entries) =
  Pipeline.run ~jobs ~nearest ~sut ~rules:(rules_of sut) ~scenarios ~entries
    ~base ~thresholds:Conferr_infer.Confidence.default ()

let check_recovered what result must_recover =
  let diff = result.Pipeline.diff in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s recovered (got: %s)" what id
           (String.concat ", " diff.Conferr_infer.Differ.recovered))
        true
        (List.mem id diff.Conferr_infer.Differ.recovered))
    must_recover;
  Alcotest.(check (list string))
    (what ^ ": no contradicted hand-written rules") []
    diff.Conferr_infer.Differ.contradicted;
  Alcotest.(check bool)
    (what ^ ": majority of hand-written ids recovered")
    true
    (let recovered, total = Infer_report.recovery result in
     total > 0 && 2 * recovered >= total)

(* ---------------- acceptance: paper faultloads ---------------- *)

let test_pg_acceptance () =
  let result = infer Suts.Mini_pg.sut (Lazy.force pg_campaign) in
  (* 5 of the 7 postgres ids; PG-SYNTAX and PG-DUP stay
     missed-by-inference (no faultload scenario exercises them) *)
  check_recovered "pg" result
    [ "PG-UNKNOWN"; "PG-VALUE"; "PG-REQUIRED"; "PG-REL-FSM"; "PG-REL-SHMEM" ];
  Alcotest.(check (list string))
    "pg: nothing inferred that the hand set lacks entirely" []
    result.Pipeline.diff.Conferr_infer.Differ.missed_by_hand

let test_bind_acceptance () =
  let result = infer Suts.Mini_bind.sut (Lazy.force bind_campaign) in
  check_recovered "bind" result
    [ "BD-CONF"; "BD-FILE"; "BD-LOAD"; "BD-ZONE"; "BD-SOA" ]

let test_deterministic_across_jobs () =
  let c = Lazy.force pg_campaign in
  let r1 = infer ~jobs:1 Suts.Mini_pg.sut c in
  let r4 = infer ~jobs:4 Suts.Mini_pg.sut c in
  Alcotest.(check string) "render byte-identical for jobs 1 vs 4"
    (Infer_report.render r1) (Infer_report.render r4);
  Alcotest.(check string) "json byte-identical for jobs 1 vs 4"
    (Conferr_obsv.Json.to_string (Infer_report.to_json r1))
    (Conferr_obsv.Json.to_string (Infer_report.to_json r4))

(* ---------------- emitted rule files ---------------- *)

let test_rule_file_roundtrip () =
  let result = infer Suts.Mini_pg.sut (Lazy.force pg_campaign) in
  let specs = Infer_report.rule_specs result in
  Alcotest.(check bool) "pg emits expressible rules" true (specs <> []);
  match Rule_file.load (Rule_file.save ~sut:"postgres" specs) with
  | Error m -> Alcotest.failf "round trip failed: %s" m
  | Ok specs' ->
    Alcotest.(check int) "same rule count" (List.length specs)
      (List.length specs');
    Alcotest.(check bool) "specs survive save/load byte-for-byte" true
      (specs = specs')

let test_rule_file_rejects_junk () =
  List.iter
    (fun text ->
      match Rule_file.load text with
      | Ok _ -> Alcotest.failf "accepted junk rule file: %s" text
      | Error _ -> ())
    [
      "";
      "not json";
      "{}";
      "{\"conferr_rules\":2,\"rules\":[]}";
      "{\"conferr_rules\":1,\"rules\":[{\"id\":\"X\"}]}";
    ]

let test_emitted_rules_stock_clean () =
  (* The mined constraints describe what the SUT accepts, so the SUT's
     own stock configuration must satisfy every one of them. *)
  List.iter
    (fun (sut, campaign) ->
      let base, _, _ = Lazy.force campaign in
      let result = infer sut (Lazy.force campaign) in
      let rules =
        List.map Rule_file.to_rule (Infer_report.rule_specs result)
      in
      let findings = Checker.run ~nearest ~rules base in
      Alcotest.(check int)
        (Printf.sprintf "%s: emitted rules lint stock clean (got: %s)"
           sut.Suts.Sut.sut_name
           (String.concat "; "
              (List.map
                 (fun (f : Conferr_lint.Finding.t) -> f.rule_id ^ " " ^ f.message)
                 findings)))
        0 (List.length findings))
    [
      (Suts.Mini_pg.sut, pg_campaign);
      (Suts.Mini_bind.sut, bind_campaign);
    ]

(* ---------------- the config-tree differ ---------------- *)

let pg_base_text = "a = 1\nb = two\nc = 3\n"

let parse_pg text =
  match Formats.Pgconf.parse text with
  | Ok tree -> Config_set.of_list [ ("postgresql.conf", tree) ]
  | Error e -> Alcotest.failf "parse: %s" (Formats.Parse_error.to_string e)

let diff_pg mutated_text =
  Edit.diff ~base:(parse_pg pg_base_text) ~mutated:(parse_pg mutated_text)

let check_edit msg (edit : Edit.t) ~name ~kind =
  Alcotest.(check string) (msg ^ ": name") name edit.name;
  Alcotest.(check string) (msg ^ ": kind") kind
    (match edit.kind with
     | Edit.Deleted -> "deleted"
     | Edit.Inserted -> "inserted"
     | Edit.Renamed _ -> "renamed"
     | Edit.Value_changed _ -> "value-changed"
     | Edit.Changed -> "changed")

let test_edit_diff () =
  (match diff_pg "a = 1\nb = two\nc = 4\n" with
  | [ e ] ->
    check_edit "value change" e ~name:"c" ~kind:"value-changed";
    (match e.kind with
    | Edit.Value_changed { from_; to_ } ->
      Alcotest.(check string) "old value" "3" from_;
      Alcotest.(check string) "new value" "4" to_
    | _ -> assert false)
  | es -> Alcotest.failf "value change: expected 1 edit, got %d" (List.length es));
  (match diff_pg "a = 1\nc = 3\n" with
  | [ e ] -> check_edit "deletion" e ~name:"b" ~kind:"deleted"
  | es -> Alcotest.failf "deletion: expected 1 edit, got %d" (List.length es));
  (match diff_pg "a = 1\nb = two\nc = 3\nd = 4\n" with
  | [ e ] -> check_edit "insertion" e ~name:"d" ~kind:"inserted"
  | es -> Alcotest.failf "insertion: expected 1 edit, got %d" (List.length es));
  (match diff_pg "a = 1\nbb = two\nc = 3\n" with
  | [ e ] ->
    check_edit "rename" e ~name:"b" ~kind:"renamed";
    (match e.kind with
    | Edit.Renamed { from_; to_ } ->
      Alcotest.(check string) "rename from" "b" from_;
      Alcotest.(check string) "rename to" "bb" to_
    | _ -> assert false)
  | es -> Alcotest.failf "rename: expected 1 edit, got %d" (List.length es));
  Alcotest.(check int) "identical sets produce no edits" 0
    (List.length (diff_pg pg_base_text))

(* ---------------- template miner properties ---------------- *)

let printable_gen = QCheck2.Gen.(string_size ~gen:printable (int_range 0 60))

let word_gen =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 1 8))

let prop_mine_idempotent =
  QCheck2.Test.make ~count:500 ~name:"template: mine is idempotent"
    printable_gen
    (fun s -> Template.mine (Template.mine s) = Template.mine s)

let prop_mine_masks_volatile_spans =
  (* Two messages that differ only in a quoted token and a line number
     must mine to the same template — the ConfInLog premise. *)
  QCheck2.Test.make ~count:500
    ~name:"template: messages differing only in masked spans share a template"
    QCheck2.Gen.(tup4 word_gen word_gen nat nat)
    (fun (w1, w2, n1, n2) ->
      let msg w n = Printf.sprintf "unknown key \"%s\" on line %d" w n in
      Template.mine (msg w1 n1) = Template.mine (msg w2 n2))

(* ---------------- dashboard pages ---------------- *)

(* The gaps, gaps --deep and infer pages, assembled as the CLI
   assembles them, from in-process campaigns with their wall-clock
   fields zeroed.  Each page's MD5 locks every byte of its panels. *)
module Replay = Conferr_lint_replay

let zeroed (base, scenarios, entries) =
  ( base,
    scenarios,
    List.map
      (fun (e : Conferr_exec.Journal.entry) ->
        { e with elapsed_ms = 0.; phase_ms = [] })
      entries )

let bind_semantic_campaign =
  campaign Suts.Mini_bind.sut (fun base ->
      Dnsmodel.Rfc1912.scenarios
        ~codec:(Dnsmodel.Codec.bind ~zones:Suts.Mini_bind.zones)
        ~faults:Dnsmodel.Rfc1912.all_faults base
      |> Errgen.Scenario.relabel_ids ~prefix:"semantic")

let gaps_page ?(deep = false) (sut : Suts.Sut.t) journal (base, scenarios, entries)
    =
  let report =
    Replay.scan ~nearest ~deep ~sut ~rules:(rules_of sut) ~scenarios ~entries
      ~base ()
  in
  Conferr_obsv.Report.html
    ~title:("conferr validator gaps \xe2\x80\x94 " ^ journal)
    ~rows:(Conferr_exec.Dashboard.rows_of_entries entries)
    ~panels:(Replay.panels ~deep report) ()

let infer_page (sut : Suts.Sut.t) journal ((_, _, entries) as campaign) =
  Conferr_obsv.Report.html
    ~title:("conferr inferred constraints \xe2\x80\x94 " ^ journal)
    ~rows:(Conferr_exec.Dashboard.rows_of_entries entries)
    ~panels:[ Infer_report.panel ~hand:(rules_of sut) (infer sut campaign) ]
    ()

let test_dashboard_pages () =
  let pg = zeroed (Lazy.force pg_campaign) in
  let bind = zeroed (Lazy.force bind_semantic_campaign) in
  List.iter
    (fun (what, page, want) ->
      Alcotest.(check string) what want (Digest.to_hex (Digest.string page)))
    [
      ( "gaps, pg typo journal",
        gaps_page Suts.Mini_pg.sut "pg.jsonl" pg,
        "e7d61dc9d7efec7676378a23c0f7b7a5" );
      ( "gaps, bind semantic journal",
        gaps_page Suts.Mini_bind.sut "bind.jsonl" bind,
        "892c4a53c23df43836de9126a1aadea7" );
      ( "gaps --deep, pg typo journal",
        gaps_page ~deep:true Suts.Mini_pg.sut "pg.jsonl" pg,
        "6b2d6b56cdb860f336e749103af02f7d" );
      ( "infer, pg typo journal",
        infer_page Suts.Mini_pg.sut "pg.jsonl" pg,
        "233454d02cc6757996bbe1e574e3457d" );
    ]

let suite =
  [
    Alcotest.test_case "inference acceptance: mini_pg paper faultload" `Quick
      test_pg_acceptance;
    Alcotest.test_case "inference acceptance: mini_bind paper faultload" `Quick
      test_bind_acceptance;
    Alcotest.test_case "inference deterministic across jobs" `Quick
      test_deterministic_across_jobs;
    Alcotest.test_case "rule file save/load round trip" `Quick
      test_rule_file_roundtrip;
    Alcotest.test_case "rule file rejects malformed input" `Quick
      test_rule_file_rejects_junk;
    Alcotest.test_case "emitted rules lint stock configs clean" `Quick
      test_emitted_rules_stock_clean;
    Alcotest.test_case "config-tree differ classifies edits" `Quick
      test_edit_diff;
    QCheck_alcotest.to_alcotest prop_mine_idempotent;
    QCheck_alcotest.to_alcotest prop_mine_masks_volatile_spans;
    Alcotest.test_case "gaps, gaps --deep and infer pages byte-stable" `Quick
      test_dashboard_pages;
  ]
