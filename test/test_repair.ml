(* Repair synthesis (ISSUE 9): from detection to fix.  The acceptance
   bar: on the paper faultloads `conferr repair` fixes the majority of
   injected errors back to a lint-clean, SUT-accepted configuration
   (most of them byte-equal to stock), at least one repair is a
   multi-edit candidate driven by a Conferr_infer.Cooccur cluster, and
   every rendering is byte-identical for any jobs count.  Plus unit
   coverage of the edit algebra (order-independent application), the
   reverse typo generator, and a qcheck property that an applied repair
   always lints clean and never edits an untouched ConfPath. *)

module Engine = Conferr.Engine
module Checker = Conferr_lint.Checker
module Finding = Conferr_lint.Finding
module Pipeline = Conferr_repair.Pipeline
module Generate = Conferr_repair.Generate
module Redit = Conferr_repair.Redit
module Validate = Conferr_repair.Validate
module Repair_report = Conferr_repair.Repair_report
module Edit = Conferr_infer.Edit
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

let parse_pg text =
  match
    Engine.parse_config Suts.Mini_pg.sut [ ("postgresql.conf", text) ]
  with
  | Ok set -> set
  | Error m -> Alcotest.failf "parse_pg: %s" m

let pg_stock = lazy (base_of Suts.Mini_pg.sut)

let repair_one ?specs sut broken =
  Pipeline.run ?specs ~nearest ~sut ~rules:(rules_of sut)
    ~stock:(base_of sut)
    [ Pipeline.file_target ~id:"t" broken ]

let the_repair (result : Pipeline.result) =
  match result.repairs with
  | [ r ] -> r
  | rs -> Alcotest.failf "expected 1 repair, got %d" (List.length rs)

(* ---------------- edit algebra ---------------- *)

let test_apply_order_independent () =
  let stock = Lazy.force pg_stock in
  let tree =
    match Config_set.find stock "postgresql.conf" with
    | Some t -> t
    | None -> Alcotest.fail "no postgresql.conf in stock"
  in
  let inserted =
    match Node.get tree [ 1 ] with
    | Some n -> n
    | None -> Alcotest.fail "no node at /1"
  in
  let edits =
    [
      { Redit.file = "postgresql.conf"; path = [ 1 ]; op = Redit.Delete };
      {
        Redit.file = "postgresql.conf";
        path = [];
        op = Redit.Insert { index = 5; node = inserted };
      };
      {
        Redit.file = "postgresql.conf";
        path = [ 3 ];
        op = Redit.Set_value (Some "42");
      };
    ]
  in
  let applied order =
    match Redit.apply stock order with
    | Ok set -> set
    | Error m -> Alcotest.failf "apply: %s" m
  in
  let a = applied edits and b = applied (List.rev edits) in
  Alcotest.(check bool)
    "application result is independent of edit list order" true
    (Config_set.equal a b);
  (* the insert lands at original index 5; the delete at /1 then shifts
     everything after it down one slot, leaving the copy at /4 *)
  let tree' =
    match Config_set.find a "postgresql.conf" with
    | Some t -> t
    | None -> Alcotest.fail "no postgresql.conf after apply"
  in
  Alcotest.(check (option string))
    "node moved to slot 4"
    (Some inserted.Node.name)
    (Option.map (fun n -> n.Node.name) (Node.get tree' [ 4 ]))

let test_restore_file_covers_missing_file () =
  let stock = Lazy.force pg_stock in
  let tree =
    match Config_set.find stock "postgresql.conf" with
    | Some t -> t
    | None -> Alcotest.fail "no postgresql.conf in stock"
  in
  let edit =
    { Redit.file = "postgresql.conf"; path = []; op = Redit.Restore_file tree }
  in
  match Redit.apply Config_set.empty [ edit ] with
  | Error m -> Alcotest.failf "restore into empty set: %s" m
  | Ok set ->
    Alcotest.(check bool)
      "whole-file restore recreates the file in an empty set" true
      (Config_set.equal set
         (Config_set.add Config_set.empty "postgresql.conf" tree))

let test_restore_file_ranks_last () =
  let stock = Lazy.force pg_stock in
  let tree =
    match Config_set.find stock "postgresql.conf" with
    | Some t -> t
    | None -> Alcotest.fail "no postgresql.conf"
  in
  let restore =
    { Redit.file = "postgresql.conf"; path = []; op = Redit.Restore_file tree }
  in
  let rename =
    { Redit.file = "postgresql.conf"; path = [ 1 ]; op = Redit.Rename "x" }
  in
  Alcotest.(check bool)
    "whole-file restoration costs more than a targeted rename" true
    (Redit.total_cost ~broken:stock [ restore ]
     > Redit.total_cost ~broken:stock [ rename ])

(* ---------------- reverse typo generation ---------------- *)

let test_typo_corrections () =
  let vocabulary =
    [ "max_connections"; "shared_buffers"; "datestyle"; "listen_addresses" ]
  in
  (match Errgen.Typo.corrections ~vocabulary "max_connektions" with
  | (best, d) :: _ ->
    Alcotest.(check string) "nearest vocabulary word first" "max_connections" best;
    Alcotest.(check int) "at damerau distance 1" 1 d
  | [] -> Alcotest.fail "no corrections for max_connektions");
  Alcotest.(check bool)
    "a vocabulary word is never its own correction" true
    (Errgen.Typo.corrections ~vocabulary "datestyle"
    |> List.for_all (fun (w, _) -> w <> "datestyle"))

(* ---------------- file-mode repairs ---------------- *)

let broken_typo =
  String.concat "\n"
    [
      "# PostgreSQL configuration file";
      "max_connektions = 100";
      "shared_buffers = 24MB";
      "max_fsm_pages = 153600";
      "max_fsm_relations = 1000";
      "datestyle = 'iso, mdy'";
      "lc_messages = 'en_US.UTF-8'";
      "log_timezone = 'UTC'";
      "listen_addresses = 'localhost'";
      "";
    ]

let test_pg_typo_repaired () =
  let r = the_repair (repair_one Suts.Mini_pg.sut (parse_pg broken_typo)) in
  Alcotest.(check string) "status" "repaired" (Pipeline.status_label r.r_status);
  Alcotest.(check bool) "repaired back to stock" true r.r_matches_stock;
  match r.r_chosen with
  | None -> Alcotest.fail "no chosen verdict"
  | Some v ->
    Alcotest.(check int) "a single character was transposed away" 1
      v.Validate.distance;
    Alcotest.(check int) "one edit" 1
      (List.length v.Validate.candidate.Generate.edits)

(* Both values are individually in range, but max_fsm_pages must be at
   least 16 * max_fsm_relations (rule PG-REL-FSM): restoring either
   directive alone still violates the constraint, so the only minimal
   repair is the two-edit candidate grouped by the co-occurrence
   cluster mined from the failure message. *)
let broken_cross =
  String.concat "\n"
    [
      "# PostgreSQL configuration file";
      "max_connections = 100";
      "shared_buffers = 24MB";
      "max_fsm_pages = 1500";
      "max_fsm_relations = 20000";
      "datestyle = 'iso, mdy'";
      "lc_messages = 'en_US.UTF-8'";
      "log_timezone = 'UTC'";
      "listen_addresses = 'localhost'";
      "";
    ]

let test_pg_cross_needs_cluster () =
  let r = the_repair (repair_one Suts.Mini_pg.sut (parse_pg broken_cross)) in
  Alcotest.(check string) "status" "repaired" (Pipeline.status_label r.r_status);
  Alcotest.(check bool) "repaired back to stock" true r.r_matches_stock;
  match r.r_chosen with
  | None -> Alcotest.fail "no chosen verdict"
  | Some v ->
    Alcotest.(check (list string))
      "driven by the mined co-occurrence cluster"
      [ "max_fsm_pages"; "max_fsm_relations" ]
      (List.sort compare v.Validate.candidate.Generate.cluster);
    Alcotest.(check int) "a multi-edit repair" 2
      (List.length v.Validate.candidate.Generate.edits)

(* ---------------- journal-mode acceptance ---------------- *)

let silent (_ : Conferr_exec.Progress.event) = ()

(* Run the campaign once through the real executor + journal codec over
   the shared faultload regenerator — exactly what `conferr repair
   --journal` replays. *)
let campaign (sut : Suts.Sut.t) =
  lazy
    (let base = base_of sut in
     let scenarios = Conferr.Faultload.journal_scenarios ~seed:42 sut base in
     let path = Filename.temp_file "conferr_repair_test" ".jsonl" in
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

let pg_campaign = campaign Suts.Mini_pg.sut
let bind_campaign = campaign Suts.Mini_bind.sut

let repair_journal ?(jobs = 1) ?ids sut (stock, scenarios, entries) =
  Pipeline.run ~jobs ~nearest ~sut ~rules:(rules_of sut) ~stock
    (Pipeline.journal_targets ?ids ~scenarios ~stock entries)

(* Repaired or harmless outnumber the unrepaired among the targets
   considered. *)
let majority_repaired result =
  let repaired, clean, unrepaired, _ = Pipeline.counts result in
  let considered = repaired + clean + unrepaired in
  considered > 0 && 2 * (repaired + clean) > considered

let test_pg_journal_acceptance () =
  let result = repair_journal ~jobs:4 Suts.Mini_pg.sut (Lazy.force pg_campaign) in
  let repaired, clean, unrepaired, skipped = Pipeline.counts result in
  Alcotest.(check int) "every scenario regenerated" 0 skipped;
  Alcotest.(check int) "pg: no unrepairable faults" 0 unrepaired;
  Alcotest.(check bool) "pg: majority of injected errors repaired" true
    (majority_repaired result);
  Alcotest.(check bool)
    (Printf.sprintf "pg: more repaired (%d) than merely harmless (%d)"
       repaired clean)
    true (repaired > clean);
  (* most repairs restore the stock text exactly, not just any accepted
     configuration *)
  let back_to_stock =
    List.length
      (List.filter
         (fun (r : Pipeline.repair) ->
           r.r_status = Pipeline.Repaired && r.r_matches_stock)
         result.repairs)
  in
  Alcotest.(check bool)
    (Printf.sprintf "pg: majority of repairs are byte-equal to stock (%d/%d)"
       back_to_stock repaired)
    true
    (2 * back_to_stock > repaired)

let test_bind_journal_acceptance () =
  let result =
    repair_journal ~jobs:4 Suts.Mini_bind.sut (Lazy.force bind_campaign)
  in
  let _, _, _, skipped = Pipeline.counts result in
  Alcotest.(check int) "every scenario regenerated" 0 skipped;
  Alcotest.(check bool) "bind: majority of injected errors repaired" true
    (majority_repaired result)

let test_deterministic_across_jobs () =
  let c = Lazy.force pg_campaign in
  let ids = [ "typo-0001"; "typo-0002"; "typo-0003"; "typo-0010" ] in
  let r1 = repair_journal ~jobs:1 ~ids Suts.Mini_pg.sut c in
  let r4 = repair_journal ~jobs:4 ~ids Suts.Mini_pg.sut c in
  Alcotest.(check string) "render byte-identical for jobs 1 vs 4"
    (Repair_report.render r1) (Repair_report.render r4);
  Alcotest.(check string) "json byte-identical for jobs 1 vs 4"
    (Conferr_obsv.Json.to_string (Repair_report.to_json r1))
    (Conferr_obsv.Json.to_string (Repair_report.to_json r4))

(* Journal-mode repair over the seed-42 faultload of every SUT, at jobs
   1 and 2: MD5s of the JSON report and of the text render.  They were
   recorded with a validator that judged every (target, candidate) pair
   on its own, so judging each distinct configuration once must give
   the same bytes.  A change in which candidate wins, in a verdict or
   in the [validated] count shows here. *)
let locked_digests =
  [
    ( Suts.Mini_appserver.sut,
      campaign Suts.Mini_appserver.sut,
      "f207176a63c7826b493166675c83503f",
      "0ec1491d5c4206b6df97c0108ea73c8c" );
    ( Suts.Mini_pg.sut,
      pg_campaign,
      "5d166dcb5ae21d281aff7bdaaba5332f",
      "37e86ec52af9349a4b2997e700be11b9" );
    ( Suts.Mini_mysql.sut,
      campaign Suts.Mini_mysql.sut,
      "6ea0d57f56eac5bf575e86df26d953c8",
      "bcb24fb87c9c37237d3361b0bd6f4cd4" );
    ( Suts.Mini_djbdns.sut,
      campaign Suts.Mini_djbdns.sut,
      "57146a0fd2c5200eb3fcfd9ff8fae0e4",
      "a588acd9d82ffdf3139f0e9b85f33cda" );
    ( Suts.Mini_bind.sut,
      bind_campaign,
      "c32bf527a30509a0e14d388b9e01fba1",
      "deeedafb7616a5ac205887d104467842" );
    ( Suts.Mini_apache.sut,
      campaign Suts.Mini_apache.sut,
      "cd052435a1bd146ae57aecf535ee22ea",
      "d7bb65facfea56b4fc173ffcb30e8118" );
  ]

let test_output_locked () =
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun ((sut : Suts.Sut.t), c, json, text) ->
      List.iter
        (fun jobs ->
          let r = repair_journal ~jobs sut (Lazy.force c) in
          let what part = Printf.sprintf "%s jobs %d: %s" sut.sut_name jobs part in
          Alcotest.(check string) (what "json") json
            (md5 (Conferr_obsv.Json.to_string (Repair_report.to_json r)));
          Alcotest.(check string) (what "text") text (md5 (Repair_report.render r)))
        [ 1; 2 ])
    locked_digests

(* ---------------- property: repairs are surgical ---------------- *)

(* Applying a chosen repair must (a) leave the configuration lint-clean
   and (b) change nothing outside the declared edit sites: the diff
   between the broken and repaired sets may only mention directives an
   edit explicitly targeted. *)
let touched_names ~broken (edits : Redit.t list) =
  List.fold_left
    (fun (files, names) (e : Redit.t) ->
      let name_at path =
        match Config_set.find broken e.file with
        | None -> []
        | Some tree ->
          (match Node.get tree path with
          | Some n -> [ String.lowercase_ascii n.Node.name ]
          | None -> [])
      in
      match e.op with
      | Redit.Restore_file _ -> (e.file :: files, names)
      | Redit.Insert { node; _ } ->
        (files, String.lowercase_ascii node.Node.name :: names)
      | Redit.Rename to_ ->
        (files, (String.lowercase_ascii to_ :: name_at e.path) @ names)
      | Redit.Set_value _ | Redit.Delete -> (files, name_at e.path @ names))
    ([], []) edits

let prop_repair_is_surgical =
  QCheck2.Test.make ~count:25
    ~name:"repair: applied repair lints clean, touches only declared sites"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun salt ->
      let sut = Suts.Mini_pg.sut in
      let stock = Lazy.force pg_stock in
      let scenarios = Conferr.Faultload.journal_scenarios ~seed:42 sut stock in
      let scenario = List.nth scenarios (salt mod List.length scenarios) in
      match scenario.Errgen.Scenario.apply stock with
      | Error _ -> true
      | Ok broken ->
        let r = the_repair (repair_one sut broken) in
        (match r.Pipeline.r_chosen with
        | None -> true
        | Some v ->
          let repaired =
            match v.Validate.repaired with
            | Some set -> set
            | None -> QCheck2.Test.fail_report "chosen verdict has no set"
          in
          let clean =
            not
              (Checker.exceeds ~threshold:Finding.Warning
                 (Checker.run ~nearest ~rules:(rules_of sut) repaired))
          in
          if not clean then
            QCheck2.Test.fail_reportf "%s: repaired set still has findings"
              scenario.Errgen.Scenario.id;
          let files, names =
            touched_names ~broken v.Validate.candidate.Generate.edits
          in
          Edit.diff ~base:broken ~mutated:repaired
          |> List.for_all (fun (d : Edit.t) ->
                 List.mem d.Edit.file files
                 || List.mem (String.lowercase_ascii d.Edit.name) names
                 ||
                 (QCheck2.Test.fail_reportf
                    "%s: collateral edit to %s '%s' (declared: %s)"
                    scenario.Errgen.Scenario.id d.Edit.file d.Edit.name
                    (String.concat ", " names)
                  : bool))))

(* ---------------- shared faultload regenerator ---------------- *)

(* The extracted Conferr.Faultload.journal_scenarios must derive exactly
   what gaps/infer derived inline before: the paper typo faultload at
   the seed, plus the relabelled RFC 1912 semantic scenarios for the
   DNS SUTs (and only for them). *)
let test_faultload_matches_inline_derivation () =
  let check sut expected_semantic =
    let base = base_of sut in
    let typo =
      Conferr.Campaign.typo_scenarios
        ~rng:(Conferr_util.Rng.create 42)
        ~faultload:Conferr.Campaign.paper_faultload sut base
    in
    let regenerated = Conferr.Faultload.journal_scenarios ~seed:42 sut base in
    let ids l = List.map (fun (s : Errgen.Scenario.t) -> s.id) l in
    let semantic =
      List.filteri (fun i _ -> i >= List.length typo) regenerated
    in
    Alcotest.(check (list string))
      (sut.Suts.Sut.sut_name ^ ": typo prefix matches the campaign derivation")
      (ids typo)
      (List.filteri (fun i _ -> i < List.length typo) regenerated |> ids);
    Alcotest.(check bool)
      (sut.Suts.Sut.sut_name ^ ": semantic suffix present iff a DNS SUT")
      expected_semantic (semantic <> []);
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (id ^ " relabelled like `conferr semantic`")
          true
          (String.length id >= 9 && String.sub id 0 9 = "semantic-"))
      (ids semantic)
  in
  check Suts.Mini_pg.sut false;
  check Suts.Mini_bind.sut true;
  check Suts.Mini_djbdns.sut true

(* gaps, infer and repair join journal entries to the regenerated
   faultload through Faultload.by_id, which keeps the first scenario of
   an id: the ids are unique, so the scenario kept is the only one. *)
let test_faultload_ids_unique () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      let base = base_of sut in
      List.iter
        (fun seed ->
          let scenarios = Conferr.Faultload.journal_scenarios ~seed sut base in
          let ids = List.map (fun (s : Errgen.Scenario.t) -> s.id) scenarios in
          Alcotest.(check int)
            (Printf.sprintf "%s seed %d: ids unique" sut.sut_name seed)
            (List.length ids)
            (List.length (List.sort_uniq compare ids));
          let by_id = Conferr.Faultload.by_id scenarios in
          List.iter
            (fun (s : Errgen.Scenario.t) ->
              match by_id s.id with
              | Some found when found == s -> ()
              | _ ->
                Alcotest.failf "%s seed %d: %s joins another scenario"
                  sut.sut_name seed s.id)
            scenarios)
        [ 1; 42 ])
    Suts.Catalog.all

let suite =
  [
    Alcotest.test_case "redit: apply order-independent" `Quick
      test_apply_order_independent;
    Alcotest.test_case "redit: restore covers missing file" `Quick
      test_restore_file_covers_missing_file;
    Alcotest.test_case "redit: whole-file restore ranks last" `Quick
      test_restore_file_ranks_last;
    Alcotest.test_case "typo: reverse corrections" `Quick test_typo_corrections;
    Alcotest.test_case "pg file mode: typo repaired to stock" `Quick
      test_pg_typo_repaired;
    Alcotest.test_case "pg file mode: cross-parameter fault needs cluster"
      `Quick test_pg_cross_needs_cluster;
    Alcotest.test_case "pg journal: majority repaired" `Slow
      test_pg_journal_acceptance;
    Alcotest.test_case "bind journal: majority repaired" `Slow
      test_bind_journal_acceptance;
    Alcotest.test_case "deterministic across jobs" `Slow
      test_deterministic_across_jobs;
    Alcotest.test_case "faultload: shared regenerator" `Quick
      test_faultload_matches_inline_derivation;
    Alcotest.test_case "faultload: journal ids unique" `Quick
      test_faultload_ids_unique;
    QCheck_alcotest.to_alcotest prop_repair_is_surgical;
    Alcotest.test_case "journal mode: output locked on six SUTs" `Slow
      test_output_locked;
  ]
