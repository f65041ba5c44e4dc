(** Validator-gap scan: replay a campaign journal through the static
    checker and diff the static verdict against each journaled dynamic
    outcome (doc/lint.md).

    Each journal entry is matched back to its generating scenario by id
    (the scenario's recorded provenance); the mutation is re-applied to
    the base configuration, serialized, re-parsed with the SUT's native
    formats — so the linter sees exactly the bytes the SUT saw — and
    linted.  Rows come back in journal order and the whole report is
    byte-identical for any [jobs] value. *)

module Journal = Conferr_exec.Journal
module Finding = Conferr_lint.Finding
module Gap = Conferr_lint.Gap
module Checker = Conferr_lint.Checker
module Rule = Conferr_lint.Rule

type row = {
  entry : Journal.entry;
  static : Gap.static_verdict;
  findings : Finding.t list;
  gap : Gap.kind;
}

type report = {
  sut_name : string;
  rows : row list;  (** journal order *)
  unmatched : string list;
      (** journal entry ids with no regenerated scenario, in order *)
}

let static_of ?nearest ~rules ~sut ~base (sc : Errgen.Scenario.t) =
  match sc.apply base with
  | Error m -> (Gap.Inexpressible m, [])
  | Ok mutated -> (
    match Conferr.Engine.serialize_config sut mutated with
    | Error m -> (Gap.Inexpressible m, [])
    | Ok files -> (
      match Conferr.Engine.parse_config sut files with
      | Error m -> (Gap.Unparseable m, [])
      | Ok set ->
        let findings = Checker.run ?nearest ~rules set in
        (Gap.verdict_of_findings findings, findings)))

let scan ?jobs ?nearest ?(deep = false) ~sut ~rules ~scenarios ~entries ~base
    () =
  let by_id = Conferr.Faultload.by_id scenarios in
  let rules =
    if deep then Suts.Dataflow_rules.deepen sut.Suts.Sut.sut_name rules
    else rules
  in
  (* claim of each rule id, for the deep (claim-aware) classification;
     rules sharing an id share a claim by construction *)
  let claim_of =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (r : Rule.t) ->
        if not (Hashtbl.mem tbl r.Rule.id) then
          Hashtbl.add tbl r.Rule.id r.Rule.claim)
      rules;
    fun id -> Hashtbl.find_opt tbl id
  in
  let gap_claimed findings =
    List.exists
      (fun (f : Finding.t) ->
        Finding.at_least ~threshold:Finding.Warning f.severity
        && claim_of f.rule_id = Some Rule.Gap)
      findings
  in
  let arr = Array.of_list entries in
  let rows =
    Conferr_pool.map ?jobs
      (fun _ (entry : Journal.entry) ->
        let outcome_label = Conferr.Outcome.label entry.outcome in
        match by_id entry.scenario_id with
        | None ->
          let static = Gap.Inexpressible "scenario not regenerated" in
          ( { entry; static; findings = []; gap = Gap.Not_comparable },
            true )
        | Some sc ->
          let static, findings = static_of ?nearest ~rules ~sut ~base sc in
          let gap =
            if deep then
              Gap.classify_deep ~static ~gap_claimed:(gap_claimed findings)
                ~outcome_label
            else Gap.classify ~static ~outcome_label
          in
          ({ entry; static; findings; gap }, false))
      arr
  in
  let rows = Array.to_list rows in
  let unmatched =
    List.filter_map
      (fun (r, missing) ->
        if missing then Some r.entry.Journal.scenario_id else None)
      rows
  in
  { sut_name = sut.Suts.Sut.sut_name; rows = List.map fst rows; unmatched }

let count kind report =
  List.length (List.filter (fun r -> r.gap = kind) report.rows)

(* Distinct gap clusters for one kind: (fault class, rule id) pairs in
   first-appearance order, with occurrence count and one example.  The
   rule id is the first finding's (["syntax"] for unparseable mutants,
   ["-"] when the static side was clean). *)
type cluster = {
  c_class : string;
  c_rule : string;
  c_count : int;
  c_example_id : string;
  c_example : string;
}

let cluster_rule r =
  match r.static with
  | Gap.Unparseable _ -> "syntax"
  | _ -> (
    match r.findings with
    | f :: _ -> f.Finding.rule_id
    | [] -> "-")

let clusters kind report =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      if r.gap = kind then begin
        let key = (r.entry.Journal.class_name, cluster_rule r) in
        match Hashtbl.find_opt tbl key with
        | Some c -> Hashtbl.replace tbl key { c with c_count = c.c_count + 1 }
        | None ->
          let example =
            match r.findings with
            | f :: _ -> f.Finding.message
            | [] -> (
              match r.static with
              | Gap.Unparseable m -> m
              | _ -> r.entry.Journal.description)
          in
          order := key :: !order;
          Hashtbl.add tbl key
            {
              c_class = fst key;
              c_rule = snd key;
              c_count = 1;
              c_example_id = r.entry.Journal.scenario_id;
              c_example = example;
            }
      end)
    report.rows;
  List.rev_map (fun key -> Hashtbl.find tbl key) !order

let gap_total report =
  List.length (List.filter (fun r -> Gap.is_gap r.gap) report.rows)

let render report =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "validator-gap scan: %s\n" report.sut_name;
  Printf.bprintf buf "journal entries: %d (unmatched: %d)\n\n"
    (List.length report.rows)
    (List.length report.unmatched);
  Buffer.add_string buf "gap kinds:\n";
  List.iter
    (fun kind ->
      Printf.bprintf buf "  %-18s %d\n" (Gap.kind_label kind)
        (count kind report))
    Gap.all_kinds;
  List.iter
    (fun kind ->
      let cs = clusters kind report in
      if cs <> [] then begin
        Printf.bprintf buf "\n%s clusters (%d distinct):\n"
          (Gap.kind_label kind) (List.length cs);
        List.iter
          (fun c ->
            Printf.bprintf buf "  %s x %s  %d  e.g. %s: %s\n" c.c_class
              c.c_rule c.c_count c.c_example_id c.c_example)
          cs
      end)
    [ Gap.Silent_acceptance; Gap.Late_failure; Gap.Over_strict ];
  Buffer.contents buf

let row_to_json r =
  let open Conferr_obsv.Json in
  Obj
    [
      ("id", Str r.entry.Journal.scenario_id);
      ("class", Str r.entry.Journal.class_name);
      ("static", Str (Gap.static_label r.static));
      ("outcome", Str (Conferr.Outcome.label r.entry.Journal.outcome));
      ("gap", Str (Gap.kind_label r.gap));
      ("findings", Arr (List.map Finding.to_json r.findings));
    ]

let cluster_to_json c =
  let open Conferr_obsv.Json in
  Obj
    [
      ("class", Str c.c_class);
      ("rule", Str c.c_rule);
      ("count", Num (float_of_int c.c_count));
      ("example_id", Str c.c_example_id);
      ("example", Str c.c_example);
    ]

let to_json report =
  let open Conferr_obsv.Json in
  Obj
    [
      ("sut", Str report.sut_name);
      ("entries", Num (float_of_int (List.length report.rows)));
      ("unmatched", Arr (List.map (fun id -> Str id) report.unmatched));
      ( "kinds",
        Obj
          (List.map
             (fun kind ->
               (Gap.kind_label kind, Num (float_of_int (count kind report))))
             Gap.all_kinds) );
      (* machine-readable mirror of the text report's cluster tables:
         one array per gap kind, first-appearance order *)
      ( "clusters",
        Obj
          (List.filter_map
             (fun kind ->
               match clusters kind report with
               | [] -> None
               | cs ->
                 Some (Gap.kind_label kind, Arr (List.map cluster_to_json cs)))
             [ Gap.Silent_acceptance; Gap.Late_failure; Gap.Over_strict ]) );
      ("rows", Arr (List.map row_to_json report.rows));
    ]

let dataflow_ids ~deep report =
  if deep then Suts.Dataflow_rules.dataflow_ids report.sut_name else []

let record_metrics ?(deep = false) metrics report =
  let dataflow_ids = dataflow_ids ~deep report in
  let module M = Conferr_obsv.Metrics in
  M.declare ~help:"Validator-gap rows by kind" metrics M.Counter
    "conferr_gap_total";
  M.declare ~help:"Static lint findings over replayed mutants by severity"
    metrics M.Counter "conferr_lint_findings_total";
  if dataflow_ids <> [] then
    M.declare ~help:"Corpus-level (dataflow) findings by rule" metrics
      M.Counter "conferr_dataflow_findings_total";
  List.iter
    (fun r ->
      M.inc
        ~labels:
          [ ("sut", report.sut_name); ("gap", Gap.kind_label r.gap) ]
        metrics "conferr_gap_total";
      List.iter
        (fun (f : Finding.t) ->
          M.inc
            ~labels:
              [
                ("severity", Finding.severity_label f.severity);
                ("sut", report.sut_name);
              ]
            metrics "conferr_lint_findings_total";
          if List.mem f.rule_id dataflow_ids then
            M.inc
              ~labels:[ ("rule", f.rule_id); ("sut", report.sut_name) ]
              metrics "conferr_dataflow_findings_total")
        r.findings)
    report.rows

(* The dashboard's validator-gaps panel: kind tiles and one row per
   disagreeing entry; under [deep], the corpus-analysis panel over the
   dataflow rules' findings follows it. *)
let panels ?(deep = false) report =
  let tone : Gap.kind -> Conferr_obsv.Report.tone = function
    | Silent_acceptance -> Critical
    | Late_failure -> Serious
    | Over_strict -> Series
    | _ -> Muted
  in
  let gaps =
    {
      Conferr_obsv.Report.heading = "Validator gaps";
      blurb =
        "static lint verdict \xc3\x97 dynamic outcome for every replayed \
         mutant (doc/lint.md)";
      tiles =
        [
          ( "silent acceptance", count Gap.Silent_acceptance report,
            "lint error, SUT started fine" );
          ( "late failure", count Gap.Late_failure report,
            "lint error, functional test failed" );
          ("over-strict", count Gap.Over_strict report, "lint clean, SUT rejected");
          ( "agreement",
            count Gap.Agree_detected report + count Gap.Agree_clean report,
            "static and dynamic verdicts match" );
        ];
      columns =
        [ ("scenario", false); ("class", false); ("static", false);
          ("dynamic", false); ("gap", false); ("detail", false) ];
      rows =
        List.filter_map
          (fun r ->
            if not (Gap.is_gap r.gap) then None
            else
              Some
                [
                  Conferr_obsv.Report.Mono r.entry.Journal.scenario_id;
                  Mono r.entry.Journal.class_name;
                  Text (Gap.static_label r.static);
                  Text (Conferr.Outcome.label r.entry.Journal.outcome);
                  Badge (tone r.gap, Gap.kind_label r.gap);
                  Mono
                    (match (r.findings, r.static) with
                    | f :: _, _ -> f.Finding.message
                    | [], Gap.Unparseable m -> m
                    | [], _ -> "");
                ])
          report.rows;
      empty =
        "no validator gaps: the static verdict matched the dynamic outcome \
         on every replayed mutant.";
      noun = "disagreement";
      command = "conferr gaps --format json";
    }
  in
  if not deep then [ gaps ]
  else
    let ids = dataflow_ids ~deep report in
    [
      gaps;
      Checker.analysis_panel
        (List.concat_map
           (fun r ->
             List.filter (fun (f : Finding.t) -> List.mem f.rule_id ids) r.findings)
           report.rows);
    ]
