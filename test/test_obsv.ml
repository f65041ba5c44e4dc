(* The observability layer: metrics round-trips, trace determinism
   across --jobs, journal v2.1, the HTML dashboard, and the
   inert-by-default contract (ISSUE 4 acceptance criteria). *)

module Engine = Conferr.Engine
module Outcome = Conferr.Outcome
module Metrics = Conferr_obsv.Metrics
module Trace = Conferr_obsv.Trace
module Clock = Conferr_obsv.Clock
module Span = Conferr_obsv.Span
module Report = Conferr_obsv.Report
module Json = Conferr_obsv.Json
module Journal = Conferr_exec.Journal
module Executor = Conferr_exec.Executor
module Progress = Conferr_exec.Progress
module Scenario = Errgen.Scenario

let sut = Suts.Mini_pg.sut

let base () =
  match Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "postgres default config: %s" msg

let scenarios base =
  Conferr.Campaign.typo_scenarios
    ~rng:(Conferr_util.Rng.create 7)
    ~faultload:Conferr.Campaign.paper_faultload sut base

let silent (_ : Progress.event) = ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let temp_path suffix =
  let path = Filename.temp_file "conferr_obsv_test" suffix in
  Sys.remove path;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* -------------------------------------------------------------- *)
(* (a) Prometheus exposition round-trips exactly                   *)
(* -------------------------------------------------------------- *)

let test_exposition_round_trip () =
  let reg = Metrics.create () in
  Metrics.declare reg Metrics.Counter "conferr_demo_total"
    ~help:"counts\nthings";
  (* label values exercising every escape: backslash, quote, newline *)
  Metrics.inc reg "conferr_demo_total"
    ~labels:[ ("path", "C:\\temp"); ("msg", "say \"hi\"\nnow") ];
  Metrics.inc reg "conferr_demo_total" ~by:2.5 ~labels:[ ("path", "plain") ];
  (* floats that must survive the text format bit-for-bit *)
  Metrics.set reg "conferr_demo_gauge" (0.1 +. 0.2);
  Metrics.set reg "conferr_demo_big" 1e300;
  Metrics.set reg "conferr_demo_tiny" (-1.5e-17);
  Metrics.set reg "conferr_demo_inf" infinity;
  Metrics.set reg "conferr_demo_nan" nan;
  Metrics.record (Metrics.histogram reg "conferr_demo_ms") 3.2;
  let text = Metrics.expose reg in
  (match Metrics.parse_exposition text with
  | Error msg -> Alcotest.failf "parse_exposition: %s" msg
  | Ok parsed ->
    (* Stdlib.compare treats nan as equal to itself, unlike (=) *)
    Alcotest.(check bool)
      "parse (expose reg) returns exactly (samples reg)" true
      (compare parsed (Metrics.samples reg) = 0));
  Alcotest.(check bool) "help newline folded into the HELP line" true
    (contains text "# HELP conferr_demo_total counts things")

let test_counter_guards () =
  let reg = Metrics.create () in
  Metrics.inc reg "conferr_guard_total";
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics: negative increment of counter conferr_guard_total")
    (fun () -> Metrics.inc reg "conferr_guard_total" ~by:(-1.));
  Alcotest.check_raises "kind conflict rejected"
    (Invalid_argument "Metrics: conferr_guard_total is a counter, not a gauge")
    (fun () -> Metrics.declare reg Metrics.Gauge "conferr_guard_total")

(* -------------------------------------------------------------- *)
(* (b) histogram bucket boundaries are le-inclusive                *)
(* -------------------------------------------------------------- *)

let sample_value samples name labels =
  match
    List.find_opt
      (fun (s : Metrics.sample) -> s.sample_name = name && s.labels = labels)
      samples
  with
  | Some s -> s.value
  | None -> Alcotest.failf "sample %s%s not found" name
              (String.concat "," (List.map snd labels))

let test_histogram_boundaries () =
  let reg = Metrics.create () in
  Metrics.declare reg Metrics.Histogram "h" ~buckets:[ 1.; 2.; 4. ];
  Metrics.record (Metrics.histogram reg "h") 1.0;
  (* exactly on a bound: belongs to that bucket (le-inclusive) *)
  Metrics.record (Metrics.histogram reg "h") 1.0000001;
  (* just above: next bucket *)
  Metrics.record (Metrics.histogram reg "h") 4.5;
  (* beyond the last finite bound: +Inf only *)
  let s = Metrics.samples reg in
  Alcotest.(check (float 0.)) "le=1 holds the on-bound observation" 1.
    (sample_value s "h_bucket" [ ("le", "1") ]);
  Alcotest.(check (float 0.)) "le=2 is cumulative" 2.
    (sample_value s "h_bucket" [ ("le", "2") ]);
  Alcotest.(check (float 0.)) "le=4 unchanged" 2.
    (sample_value s "h_bucket" [ ("le", "4") ]);
  Alcotest.(check (float 0.)) "+Inf counts everything" 3.
    (sample_value s "h_bucket" [ ("le", "+Inf") ]);
  Alcotest.(check (float 0.)) "count" 3. (sample_value s "h_count" []);
  Alcotest.(check (float 1e-9)) "sum" 6.5000001 (sample_value s "h_sum" [])

(* -------------------------------------------------------------- *)
(* (c) the span clock sums passes in pipeline order                *)
(* -------------------------------------------------------------- *)

let test_clock_phases () =
  let c = Clock.create () in
  let probe = Clock.probe c in
  Alcotest.(check int) "wrap is transparent" 3
    (probe.Span.wrap Span.Run (fun () -> 3));
  ignore (probe.Span.wrap Span.Generate (fun () -> ()));
  ignore (probe.Span.wrap Span.Run (fun () -> ()));
  (try probe.Span.wrap Span.Classify (fun () -> failwith "boom")
   with Failure _ -> ());
  let pm = Clock.phase_ms c in
  Alcotest.(check (list string))
    "only phases that ran, in canonical pipeline order"
    [ "generate"; "run"; "classify" ] (List.map fst pm);
  Alcotest.(check int) "four marks recorded (two run passes)" 4
    (List.length (Clock.marks c));
  Alcotest.(check bool) "no negative phase totals" true
    (List.for_all (fun (_, ms) -> ms >= 0.) pm);
  Alcotest.(check string) "span ids are deterministic" (Span.id "typo-0001")
    (Span.id "typo-0001");
  Alcotest.(check int) "span ids are 16 hex digits" 16
    (String.length (Span.id "typo-0001"))

(* -------------------------------------------------------------- *)
(* (d) masked traces are byte-identical across --jobs              *)
(* -------------------------------------------------------------- *)

let run_with_trace jobs =
  let base = base () in
  let scenarios = scenarios base in
  let trace = Trace.create () in
  let _ =
    Executor.run_from
      ~settings:{ Executor.default_settings with jobs; trace = Some trace }
      ~on_event:silent ~sut ~base ~scenarios ()
  in
  (trace, List.length scenarios)

let test_trace_determinism () =
  let t1, n = run_with_trace 1 in
  let t4, _ = run_with_trace 4 in
  let c1 = Trace.chrome ~mask_wall:true t1 in
  let c4 = Trace.chrome ~mask_wall:true t4 in
  Alcotest.(check string) "masked chrome export identical for jobs=1 and 4" c1
    c4;
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped t1);
  match Json.of_string c1 with
  | Error msg -> Alcotest.failf "chrome export is not valid JSON: %s" msg
  | Ok json ->
    (match Json.member "traceEvents" json with
    | Some (Json.Arr events) ->
      (* a scenario's span is the one without a parent *)
      let scenario_spans =
        List.filter
          (fun e ->
            match Json.member "args" e with
            | Some args -> Json.member "parent" args = None
            | None -> false)
          events
      in
      Alcotest.(check int) "every scenario recorded" n (List.length scenario_spans);
      Alcotest.(check bool) "one scenario span plus phase spans each" true
        (List.length events > n)
    | _ -> Alcotest.fail "no traceEvents array")

(* -------------------------------------------------------------- *)
(* (e) observability off leaves the journal untouched              *)
(* -------------------------------------------------------------- *)

let run_with_journal ~jobs ~observed path =
  let base = base () in
  let scenarios = scenarios base in
  let settings =
    {
      Executor.default_settings with
      jobs;
      journal_path = Some path;
      metrics = (if observed then Some (Metrics.create ()) else None);
    }
  in
  ignore (Executor.run_from ~settings ~on_event:silent ~sut ~base ~scenarios ())

let strip_timing (e : Journal.entry) = { e with Journal.elapsed_ms = 0. }

let test_metrics_off_byte_identity () =
  let p1 = temp_path ".jsonl" and p4 = temp_path ".jsonl" in
  let po = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ p1; p4; po ])
    (fun () ->
      run_with_journal ~jobs:1 ~observed:false p1;
      run_with_journal ~jobs:4 ~observed:false p4;
      run_with_journal ~jobs:1 ~observed:true po;
      Alcotest.(check bool) "unobserved journal has no phase field" false
        (contains (read_file p1) "\"phase\"");
      (* elapsed_ms is real wall time, the single nondeterministic field;
         everything else must serialize identically for any --jobs *)
      let lines path =
        Journal.load path
        |> List.map (fun e -> Json.to_string (Journal.entry_to_json (strip_timing e)))
      in
      Alcotest.(check (list string))
        "journals identical across --jobs up to wall time" (lines p1) (lines p4);
      Alcotest.(check bool) "observed journal carries phase timings" true
        (contains (read_file po) "\"phase\"");
      (* and the observed run changes nothing else *)
      Alcotest.(check (list string))
        "observed journal identical up to wall time and phase" (lines p1)
        (Journal.load po
        |> List.map (fun e ->
               Json.to_string
                 (Journal.entry_to_json
                    { (strip_timing e) with Journal.phase_ms = [] }))))

(* -------------------------------------------------------------- *)
(* (f) journal v2.1: the phase field round-trips and is validated  *)
(* -------------------------------------------------------------- *)

let entry_with_phases =
  {
    Journal.scenario_id = "typo-0001";
    class_name = "typo/value";
    description = "omission at f:p";
    seed = 42L;
    outcome = Outcome.Passed;
    elapsed_ms = 1.5;
    attempts = 1;
    votes = [];
    phase_ms = [ ("spawn", 0.5); ("run", 1.0) ];
  }

let test_journal_phase_round_trip () =
  (match Journal.entry_of_json (Journal.entry_to_json entry_with_phases) with
  | Ok e ->
    Alcotest.(check bool) "entry round-trips with phase_ms" true
      (compare e entry_with_phases = 0)
  | Error msg -> Alcotest.failf "round-trip: %s" msg);
  let plain = { entry_with_phases with Journal.phase_ms = [] } in
  Alcotest.(check bool) "empty phase_ms is omitted from the wire" false
    (contains (Json.to_string (Journal.entry_to_json plain)) "\"phase\"")

let test_journal_phase_ill_typed () =
  let mangle phase_json =
    match Journal.entry_to_json entry_with_phases with
    | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "phase" then (k, phase_json) else (k, v))
           fields)
    | _ -> Alcotest.fail "entry_to_json is not an object"
  in
  let rejects what phase_json =
    match Journal.entry_of_json (mangle phase_json) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "ill-typed phase accepted: %s" what
  in
  rejects "string" (Json.Str "nope");
  rejects "array" (Json.Arr [ Json.Num 1. ]);
  rejects "non-numeric member" (Json.Obj [ ("run", Json.Str "fast") ]);
  rejects "negative duration" (Json.Obj [ ("run", Json.Num (-1.)) ])

let test_fsck_empty_journal () =
  let path = temp_path ".jsonl" in
  let oc = open_out path in
  close_out oc;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let report = Journal.fsck path in
      Alcotest.(check bool) "0-byte journal is clean" true
        (Journal.clean report);
      Alcotest.(check int) "no valid lines" 0 report.Journal.valid;
      Alcotest.(check int) "no torn lines" 0 report.Journal.torn;
      Alcotest.(check int) "no corrupt lines" 0 report.Journal.corrupt)

(* -------------------------------------------------------------- *)
(* (g) the dashboard renders a chaos-shaped campaign               *)
(* -------------------------------------------------------------- *)

let test_report_html () =
  let row id class_name outcome detail signature flaky =
    {
      Report.id;
      class_name;
      outcome;
      detail;
      signature;
      elapsed_ms = 1.25;
      attempts = (if flaky then 3 else 1);
      flaky;
      phase_ms = [ ("spawn", 0.25); ("run", 1.0) ];
    }
  in
  let rows =
    [
      row "typo-0001" "typo/name" "startup" "unknown directive" "s1" false;
      row "typo-0002" "typo/value" "functional" "query failed" "s2" false;
      row "typo-0003" "typo/value" "ignored" "" "s3" false;
      row "typo-0004" "typo/structure" "crashed" "timeout after 1.0s [harness]"
        "s4" true;
      row "typo-0005" "typo/structure" "crashed" "timeout after 1.0s [harness]"
        "s4" false;
      row "typo-0006" "typo/name" "n/a" "inexpressible" "s5" false;
    ]
  in
  let reg = Metrics.create () in
  Metrics.inc reg "conferr_chaos_injections_total" ~labels:[ ("fault", "hang") ];
  Metrics.inc reg "conferr_breaker_trips_total"
    ~labels:[ ("bucket", "pg x typo/structure") ];
  let html =
    Report.html ~title:"chaos campaign" ~rows
      ~metrics_text:(Metrics.expose reg) ()
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "html contains %S" needle) true
        (contains html needle))
    [
      "<html";
      "</html>";
      "<svg";
      "chaos campaign";
      "typo-0004";
      "typo/structure";
      "crashed";
      "conferr_chaos_injections_total";
    ];
  (* self-contained: no external fetches of any kind *)
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "html does not reference %S" needle)
        false (contains html needle))
    [ "http://"; "https://"; "<script src" ];
  let out = temp_path ".html" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists out then Sys.remove out)
    (fun () ->
      Report.write_file ~title:"chaos campaign" ~rows out;
      Alcotest.(check bool) "write_file produces a non-empty file" true
        (String.length (read_file out) > 1000))

(* -------------------------------------------------------------- *)
(* (h) progress counters and the registry agree                    *)
(* -------------------------------------------------------------- *)

let test_progress_metrics_agree () =
  let base = base () in
  let scenarios = scenarios base in
  let reg = Metrics.create () in
  let _, snapshot =
    Executor.run_from
      ~settings:{ Executor.default_settings with jobs = 2; metrics = Some reg }
      ~on_event:silent ~sut ~base ~scenarios ()
  in
  let total name =
    Metrics.family reg name |> List.fold_left (fun acc (_, v) -> acc +. v) 0.
  in
  Alcotest.(check (float 0.)) "started counter matches snapshot"
    (float_of_int snapshot.Progress.started)
    (total "conferr_scenarios_started_total");
  Alcotest.(check (float 0.)) "finished counter matches snapshot"
    (float_of_int snapshot.Progress.finished)
    (total "conferr_scenarios_finished_total");
  Alcotest.(check (float 0.)) "per-outcome families agree"
    (total "conferr_scenarios_finished_total")
    (total "conferr_scenario_outcomes_total");
  List.iter
    (fun (label, n) ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "outcome %s agrees" label)
        (Some (float_of_int n))
        (Metrics.value reg "conferr_scenarios_finished_total"
           ~labels:[ ("outcome", label) ]))
    snapshot.Progress.by_label

let suite =
  [
    Alcotest.test_case "exposition round-trip" `Quick test_exposition_round_trip;
    Alcotest.test_case "counter guards" `Quick test_counter_guards;
    Alcotest.test_case "histogram boundaries" `Quick test_histogram_boundaries;
    Alcotest.test_case "clock phases" `Quick test_clock_phases;
    Alcotest.test_case "trace determinism across jobs" `Quick
      test_trace_determinism;
    Alcotest.test_case "metrics off leaves journal bytes" `Quick
      test_metrics_off_byte_identity;
    Alcotest.test_case "journal v2.1 phase round-trip" `Quick
      test_journal_phase_round_trip;
    Alcotest.test_case "journal v2.1 ill-typed phase" `Quick
      test_journal_phase_ill_typed;
    Alcotest.test_case "fsck: empty journal is clean" `Quick
      test_fsck_empty_journal;
    Alcotest.test_case "report.html renders" `Quick test_report_html;
    Alcotest.test_case "progress and registry agree" `Quick
      test_progress_metrics_agree;
  ]
