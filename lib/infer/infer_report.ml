module Json = Conferr_obsv.Json
module Rule = Conferr_lint.Rule
module Finding = Conferr_lint.Finding
module Rule_file = Conferr_lint.Rule_file

let recovery (r : Pipeline.result) =
  (List.length r.diff.recovered, List.length r.diff.rules)

let majority r =
  let recovered, total = recovery r in
  total > 0 && 2 * recovered >= total

let render (r : Pipeline.result) =
  let buf = Buffer.create 2048 in
  Printf.bprintf buf "constraint inference: %s\n" r.evidence.sut_name;
  Printf.bprintf buf "journal entries: %d (unmatched: %d)\n"
    (List.length r.evidence.rows)
    (List.length r.evidence.unmatched);
  Printf.bprintf buf
    "evidence tables: %d; candidates kept: %d (dropped below thresholds: \
     %d; min-support %d, min-confidence %.2f)\n"
    (List.length r.tables)
    (List.length r.candidates)
    r.dropped r.thresholds.min_support r.thresholds.min_confidence;
  if r.candidates <> [] then begin
    Buffer.add_string buf "\ncandidates:\n";
    List.iter
      (fun (c : Candidate.t) ->
        let matches =
          match List.assoc_opt c.id r.diff.matches_of with
          | Some (_ :: _ as ids) -> "-> " ^ String.concat "," ids
          | _ -> "missed-by-hand"
        in
        Printf.bprintf buf
          "  %-16s %-8s %-9s %-32s support %-3d confidence %.2f  %s\n" c.id
          (Candidate.kind_label c.kind)
          (Rule.claim_label c.claim)
          (Candidate.target_string c)
          (List.length c.support) (Candidate.confidence c) matches;
        Printf.bprintf buf "    %s\n" c.doc)
      r.candidates
  end;
  let recovered, total = recovery r in
  Printf.bprintf buf "\nrule diff vs hand-written set (%d rule ids):\n" total;
  let show label ids =
    Printf.bprintf buf "  %-20s %d%s\n" label (List.length ids)
      (if ids = [] then "" else ": " ^ String.concat ", " ids)
  in
  show "recovered" r.diff.recovered;
  show "missed-by-inference" r.diff.missed_by_inference;
  show "contradicted" r.diff.contradicted;
  show "missed-by-hand" r.diff.missed_by_hand;
  Printf.bprintf buf "recovery: %d/%d hand-written rule ids (majority: %s)\n"
    recovered total
    (if majority r then "yes" else "no");
  Buffer.contents buf

let candidate_to_json r (c : Candidate.t) =
  Json.Obj
    [
      ("id", Json.Str c.id);
      ("kind", Json.Str (Candidate.kind_label c.kind));
      ("file", Json.Str c.file);
      ("section", Json.Str c.section);
      ("name", Json.Str c.name);
      ("node_kind", Json.Str c.node_kind);
      ("doc", Json.Str c.doc);
      ("severity", Json.Str (Finding.severity_label c.severity));
      ("claim", Json.Str (Rule.claim_label c.claim));
      ("confidence", Json.Num (Candidate.confidence c));
      ("support", Json.Arr (List.map (fun s -> Json.Str s) c.support));
      ( "contradictions",
        Json.Arr (List.map (fun s -> Json.Str s) c.contradictions) );
      ("templates", Json.Arr (List.map (fun s -> Json.Str s) c.templates));
      ( "spec",
        match c.spec with
        | None -> Json.Null
        | Some body -> Rule_file.json_of_body body );
      ( "matches",
        Json.Arr
          (List.map
             (fun s -> Json.Str s)
             (Option.value ~default:[] (List.assoc_opt c.id r.Pipeline.diff.matches_of))) );
      ( "verdict",
        Json.Str (Differ.verdict_label (Differ.candidate_verdict c.id r.diff)) );
    ]

let rule_to_json (r : Pipeline.result) (rv : Differ.rule_verdict) =
  Json.Obj
    [
      ("id", Json.Str rv.rule_id);
      ("claim", Json.Str (Rule.claim_label rv.claim));
      ("fired", Json.Arr (List.map (fun s -> Json.Str s) rv.fired));
      ("matched", Json.Arr (List.map (fun s -> Json.Str s) rv.matched));
      ( "contradicting",
        Json.Arr (List.map (fun s -> Json.Str s) rv.contradicting) );
      ( "verdict",
        Json.Str (Differ.verdict_label (Differ.rule_verdict rv.rule_id r.diff)) );
    ]

let to_json (r : Pipeline.result) =
  let recovered, total = recovery r in
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.Obj
    [
      ("sut", Json.Str r.evidence.sut_name);
      ("entries", Json.Num (float_of_int (List.length r.evidence.rows)));
      ("unmatched", strs r.evidence.unmatched);
      ( "thresholds",
        Json.Obj
          [
            ("min_support", Json.Num (float_of_int r.thresholds.min_support));
            ("min_confidence", Json.Num r.thresholds.min_confidence);
          ] );
      ("dropped", Json.Num (float_of_int r.dropped));
      ("candidates", Json.Arr (List.map (candidate_to_json r) r.candidates));
      ("rules", Json.Arr (List.map (rule_to_json r) r.diff.rules));
      ( "diff",
        Json.Obj
          [
            ("recovered", strs r.diff.recovered);
            ("missed_by_inference", strs r.diff.missed_by_inference);
            ("contradicted", strs r.diff.contradicted);
            ("missed_by_hand", strs r.diff.missed_by_hand);
          ] );
      ( "recovery",
        Json.Obj
          [
            ("recovered", Json.Num (float_of_int recovered));
            ("total", Json.Num (float_of_int total));
            ("majority", Json.Bool (majority r));
          ] );
    ]

let rule_specs (r : Pipeline.result) =
  List.filter_map Candidate.to_spec r.candidates

let record_metrics metrics (r : Pipeline.result) =
  let module M = Conferr_obsv.Metrics in
  let sut = r.evidence.sut_name in
  M.declare ~help:"Inferred constraint candidates kept, by kind and claim"
    metrics M.Counter "conferr_infer_candidates_total";
  M.declare ~help:"Hand-written rule ids (and unmatched candidates) by diff verdict"
    metrics M.Counter "conferr_infer_rule_diff_total";
  List.iter
    (fun (c : Candidate.t) ->
      M.inc
        ~labels:
          [
            ("claim", Rule.claim_label c.claim);
            ("kind", Candidate.kind_label c.kind);
            ("sut", sut);
          ]
        metrics "conferr_infer_candidates_total")
    r.candidates;
  List.iter
    (fun (rv : Differ.rule_verdict) ->
      M.inc
        ~labels:
          [
            ("sut", sut);
            ("verdict", Differ.verdict_label (Differ.rule_verdict rv.rule_id r.diff));
          ]
        metrics "conferr_infer_rule_diff_total")
    r.diff.rules;
  List.iter
    (fun _ ->
      M.inc
        ~labels:[ ("sut", sut); ("verdict", Differ.verdict_label Missed_by_hand) ]
        metrics "conferr_infer_rule_diff_total")
    r.diff.missed_by_hand

let panel ~hand (r : Pipeline.result) =
  let tone : Differ.verdict -> Conferr_obsv.Report.tone = function
    | Recovered -> Good
    | Missed_by_hand -> Serious
    | Missed_by_inference -> Muted
    | Contradicted -> Critical
  in
  let row verdict id kind target support confidence doc =
    ( verdict,
      [
        Conferr_obsv.Report.Mono id;
        Text kind;
        Mono target;
        Num (string_of_int support);
        Num (Printf.sprintf "%.2f" confidence);
        Badge (tone verdict, Differ.verdict_label verdict);
        Mono doc;
      ] )
  in
  let candidates =
    List.map
      (fun (c : Candidate.t) ->
        row
          (Differ.candidate_verdict c.id r.diff)
          c.id (Candidate.kind_label c.kind) (Candidate.target_string c)
          (List.length c.support) (Candidate.confidence c) c.doc)
      r.candidates
  in
  let doc_of id =
    match List.find_opt (fun (ru : Rule.t) -> ru.id = id) hand with
    | Some ru -> ru.doc
    | None -> ""
  in
  (* hand-written rules inference did not recover *)
  let rules =
    List.filter_map
      (fun (rv : Differ.rule_verdict) ->
        match Differ.rule_verdict rv.rule_id r.diff with
        | Recovered -> None
        | v ->
          Some
            (row v rv.rule_id "hand-rule" "-" (List.length rv.fired) 0.
               (doc_of rv.rule_id)))
      r.diff.rules
  in
  let rows = candidates @ rules in
  let n v = List.length (List.filter (fun (v', _) -> v' = v) rows) in
  {
    Conferr_obsv.Report.heading = "Inferred constraints";
    blurb =
      "constraint candidates mined from the campaign journal, diffed \
       against the hand-written rule set (doc/infer.md)";
    tiles =
      [
        ("recovered", fst (recovery r), "hand-written rules re-derived from journals");
        ( "missed by hand", n Missed_by_hand,
          "mined candidates with no hand-written rule" );
        ( "missed by inference", n Missed_by_inference,
          "hand-written rules the journals never exercised" );
        ("contradicted", n Contradicted, "hand-written rules the evidence refutes");
      ];
    columns =
      [ ("id", false); ("kind", false); ("target", false); ("support", true);
        ("confidence", true); ("verdict", false); ("constraint", false) ];
    rows = List.map snd rows;
    empty =
      "no inferred candidates: the journal holds no usable evidence at the \
       current thresholds.";
    noun = "row";
    command = "conferr infer --format json";
  }
