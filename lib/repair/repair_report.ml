module Json = Conferr_obsv.Json

let chosen_distance (r : Pipeline.repair) =
  match r.r_chosen with Some v -> v.Validate.distance | None -> 0

let render (result : Pipeline.result) =
  let b = Buffer.create 4096 in
  let repaired, clean, unrepaired, skipped = Pipeline.counts result in
  Buffer.add_string b
    (Printf.sprintf "conferr repair \xe2\x80\x94 %s: %d target(s)\n"
       result.sut_name
       (List.length result.repairs));
  List.iter
    (fun (r : Pipeline.repair) ->
      (match r.r_status with
      | Pipeline.Repaired ->
        Buffer.add_string b
          (Printf.sprintf "  %s [%s] repaired  distance %d%s\n" r.r_id
             r.r_class (chosen_distance r)
             (if r.r_matches_stock then "  matches stock" else ""));
        List.iter
          (fun (e : Pipeline.edit_view) ->
            Buffer.add_string b
              (Printf.sprintf "    %s at %s:%s\n" e.e_text e.e_file e.e_path))
          r.r_edits;
        (match r.r_chosen with
        | Some v when v.Validate.candidate.Generate.cluster <> [] ->
          Buffer.add_string b
            (Printf.sprintf "    cluster: {%s}\n"
               (String.concat ", " v.Validate.candidate.Generate.cluster))
        | _ -> ())
      | Pipeline.Already_clean ->
        Buffer.add_string b
          (Printf.sprintf "  %s [%s] already clean\n" r.r_id r.r_class)
      | Pipeline.Unrepaired ->
        Buffer.add_string b
          (Printf.sprintf "  %s [%s] unrepairable: %s (broken: %d finding(s), %s)\n"
             r.r_id r.r_class r.r_detail r.r_findings r.r_outcome)
      | Pipeline.Skipped ->
        Buffer.add_string b
          (Printf.sprintf "  %s [%s] skipped: %s\n" r.r_id r.r_class r.r_detail)))
    result.repairs;
  Buffer.add_string b
    (Printf.sprintf
       "%d repaired, %d already clean, %d unrepairable, %d skipped \
        (%d candidate validation(s))\n"
       repaired clean unrepaired skipped result.validated);
  Buffer.contents b

let json_of_repair (r : Pipeline.repair) =
  Json.Obj
    ([
       ("id", Json.Str r.r_id);
       ("class", Json.Str r.r_class);
       ("status", Json.Str (Pipeline.status_label r.r_status));
       ("detail", Json.Str r.r_detail);
       ("findings", Json.Num (float_of_int r.r_findings));
       ("outcome", Json.Str r.r_outcome);
       ("candidates", Json.Num (float_of_int r.r_candidates));
       ("matches_stock", Json.Bool r.r_matches_stock);
     ]
    @ (match r.r_chosen with
      | None -> []
      | Some v ->
        [
          ("distance", Json.Num (float_of_int v.Validate.distance));
          ( "origin",
            Json.Str v.Validate.candidate.Generate.origin );
          ( "cluster",
            Json.Arr
              (List.map
                 (fun n -> Json.Str n)
                 v.Validate.candidate.Generate.cluster) );
          ( "edits",
            Json.Arr
              (List.map
                 (fun (e : Pipeline.edit_view) ->
                   Json.Obj
                     [
                       ("file", Json.Str e.e_file);
                       ("path", Json.Str e.e_path);
                       ("op", Json.Str e.e_op);
                       ("description", Json.Str e.e_text);
                     ])
                 r.r_edits) );
        ]))

let to_json (result : Pipeline.result) =
  let repaired, clean, unrepaired, skipped = Pipeline.counts result in
  Json.Obj
    [
      ("sut", Json.Str result.sut_name);
      ("repaired", Json.Num (float_of_int repaired));
      ("already_clean", Json.Num (float_of_int clean));
      ("unrepairable", Json.Num (float_of_int unrepaired));
      ("skipped", Json.Num (float_of_int skipped));
      ("validated", Json.Num (float_of_int result.validated));
      ("repairs", Json.Arr (List.map json_of_repair result.repairs));
    ]

let record_metrics registry (result : Pipeline.result) =
  let sut = result.sut_name in
  List.iter
    (fun (r : Pipeline.repair) ->
      Conferr_obsv.Metrics.inc registry "conferr_repair_targets_total"
        ~labels:
          [ ("sut", sut); ("status", Pipeline.status_label r.r_status) ];
      List.iter
        (fun (e : Pipeline.edit_view) ->
          Conferr_obsv.Metrics.inc registry "conferr_repair_edits_total"
            ~labels:[ ("sut", sut); ("op", e.e_op) ])
        r.r_edits)
    result.repairs;
  let chosen =
    List.length
      (List.filter
         (fun (r : Pipeline.repair) -> r.r_chosen <> None)
         result.repairs)
  in
  Conferr_obsv.Metrics.inc registry ~by:(float_of_int chosen)
    "conferr_repair_candidates_total"
    ~labels:[ ("sut", sut); ("result", "chosen") ];
  Conferr_obsv.Metrics.inc registry
    ~by:(float_of_int (result.validated - chosen))
    "conferr_repair_candidates_total"
    ~labels:[ ("sut", sut); ("result", "rejected") ]

let panel (result : Pipeline.result) =
  let repaired, clean, unrepaired, _ = Pipeline.counts result in
  let tone : Pipeline.status -> Conferr_obsv.Report.tone = function
    | Repaired -> Good
    | Already_clean -> Series
    | Unrepaired -> Critical
    | Skipped -> Muted
  in
  {
    Conferr_obsv.Report.heading = "Repairs";
    blurb =
      "synthesized minimal edits making each broken configuration \
       lint-clean and SUT-accepted (doc/repair.md)";
    tiles =
      [
        ("repaired", repaired, "lint-clean and SUT-accepted after the edits");
        ("already clean", clean, "no repair needed");
        ("unrepairable", unrepaired, "no candidate passed validation");
        ( "back to stock",
          List.length
            (List.filter (fun (r : Pipeline.repair) -> r.r_matches_stock) result.repairs),
          "repaired set equals the stock configuration" );
      ];
    columns =
      [ ("target", false); ("class", false); ("status", false); ("edits", true);
        ("distance", true); ("stock", false); ("repair", false) ];
    rows =
      List.map
        (fun (r : Pipeline.repair) ->
          [
            Conferr_obsv.Report.Mono r.r_id;
            Mono r.r_class;
            Badge (tone r.r_status, Pipeline.status_label r.r_status);
            Num (string_of_int (List.length r.r_edits));
            Num (string_of_int (chosen_distance r));
            Text (if r.r_matches_stock then "yes" else "\xe2\x80\x94");
            Mono r.r_detail;
          ])
        result.repairs;
    empty = "no repair targets.";
    noun = "target";
    command = "conferr repair --format json";
  }
