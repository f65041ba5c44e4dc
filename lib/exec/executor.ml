module Engine = Conferr.Engine
module Outcome = Conferr.Outcome
module Profile = Conferr.Profile
module Scenario = Errgen.Scenario
module Sandbox = Conferr_harden.Sandbox
module Quorum = Conferr_harden.Quorum
module Breaker = Conferr_harden.Breaker
module Repro = Conferr_harden.Repro
module Clock = Conferr_obsv.Clock
module Trace = Conferr_obsv.Trace
module Metrics = Conferr_obsv.Metrics

type settings = {
  jobs : int;
  timeout_s : float option;
  retries : int;
  campaign_seed : int;
  journal_path : string option;
  segment_bytes : int option;
  journal_io : Conferr_harden.Diskchaos.io option;
  resume : bool;
  quorum : int;
  breaker : int option;
  quarantine_dir : string option;
  fuel : int option;
  trace : Trace.t option;
  metrics : Metrics.t option;
  cancel : bool Atomic.t option;
}

let default_settings =
  {
    jobs = 1;
    timeout_s = None;
    retries = 0;
    campaign_seed = 42;
    journal_path = None;
    segment_bytes = None;
    journal_io = None;
    resume = false;
    quorum = 1;
    breaker = None;
    quarantine_dir = None;
    fuel = None;
    trace = None;
    metrics = None;
    cancel = None;
  }

let max_jobs = 64

let clamp_jobs jobs =
  if jobs <= 0 then
    Error
      (Printf.sprintf
         "--jobs must be at least 1, got %d (0 no longer means \"all cores\")"
         jobs)
  else if jobs > max_jobs then
    Ok
      ( max_jobs,
        Some
          (Printf.sprintf
             "clamping --jobs %d to %d (the most worker domains a campaign \
              may use)"
             jobs max_jobs) )
  else Ok (jobs, None)

(* The CLI-facing --jobs grammar: a positive integer, or "auto" for the
   hardware-sized default.  Anything else is a usage error (exit 2 at
   the CLI layer); range checking stays in {!clamp_jobs}. *)
let parse_jobs text =
  match String.lowercase_ascii (String.trim text) with
  | "auto" -> Ok (Conferr_pool.recommended_jobs ())
  | s -> (
    match int_of_string_opt s with
    | Some n -> Ok n
    | None ->
      Error
        (Printf.sprintf "--jobs expects a positive integer or \"auto\", got %S"
           text))

(* SplitMix64 finalizer (Stafford mix13), as in Conferr_util.Rng. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let scenario_seed ~campaign_seed id =
  let h = ref (Int64.mul (Int64.of_int campaign_seed) 0x9E3779B97F4A7C15L) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    id;
  mix64 !h

let timeout_crash ~timeout_s =
  Outcome.Crashed
    { cause = Outcome.Timeout timeout_s; phase = Outcome.Harness; backtrace = "" }

(* A crash that was actually executed (a breaker skip was not) counts
   toward the bucket's crash streak and deserves a repro bundle. *)
let executed_crash = function
  | Outcome.Crashed { cause = Outcome.Breaker_open _; _ } -> None
  | Outcome.Crashed c -> Some c
  | _ -> None

(* A campaign's metric handles, each label set resolved at its first
   use: the exposition gains exactly the series the updates touch. *)
type meters = {
  outcomes : (string * string, Metrics.counter) Metrics.handles;  (* class, outcome *)
  scenario_ms : (string, Metrics.histogram) Metrics.handles;  (* class *)
  attempts : (string, Metrics.counter) Metrics.handles;  (* class *)
  phase_ms : (string, Metrics.histogram) Metrics.handles;  (* phase *)
}

let meters reg ~sut_name =
  let counter name labels = Metrics.counter reg name ~labels:(("sut", sut_name) :: labels)
  and histogram name labels = Metrics.histogram reg name ~labels:(("sut", sut_name) :: labels) in
  {
    outcomes =
      Metrics.handles (fun (c, label) ->
          counter "conferr_scenario_outcomes_total" [ ("class", c); ("outcome", label) ]);
    scenario_ms = Metrics.handles (fun c -> histogram "conferr_scenario_ms" [ ("class", c) ]);
    attempts = Metrics.handles (fun c -> counter "conferr_quorum_attempts_total" [ ("class", c) ]);
    phase_ms = Metrics.handles (fun p -> histogram "conferr_phase_ms" [ ("phase", p) ]);
  }

(* An open campaign: what every batch of it shares. *)
type campaign = {
  settings : settings;
  sut : Suts.Sut.t;
  base : Conftree.Config_set.t;
  progress : Progress.t;
  emit : Progress.event -> unit;
  breaker : Breaker.t option;
  flaky_lock : Mutex.t;
  mutable flaky_ids : string list;
  resume_table : (string, Journal.entry) Hashtbl.t;
  writer : Journal.writer option;
  observing : bool;
  meters : meters option;
}

(* Observability is inert unless asked for: with both [trace] and
   [metrics] at [None] no clock is created and the journal/profile bytes
   are identical to an unobserved run (doc/obsv.md). *)
let open_campaign ~settings ~on_event ~sut ~base ~total =
  (match settings.metrics with
   | None -> ()
   | Some reg ->
     Metrics.declare reg Metrics.Counter "conferr_scenario_outcomes_total"
       ~help:"Finished scenarios, by (SUT, fault class, outcome label)";
     Metrics.declare reg Metrics.Histogram "conferr_scenario_ms"
       ~help:"End-to-end wall milliseconds per scenario";
     Metrics.declare reg Metrics.Histogram "conferr_phase_ms"
       ~help:"Wall milliseconds per pipeline phase (doc/obsv.md)";
     Metrics.declare reg Metrics.Counter "conferr_quorum_attempts_total"
       ~help:"SUT executions behind finished scenarios (retries included)");
  let progress = Progress.create ?metrics:settings.metrics ~total () in
  let emit_lock = Mutex.create () in
  let emit ev =
    Progress.note progress ev;
    Mutex.lock emit_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock emit_lock) (fun () -> on_event ev)
  in
  let resume_table = Hashtbl.create 64 in
  (match settings.journal_path with
   | Some path when settings.resume ->
     List.iter
       (fun (e : Journal.entry) -> Hashtbl.replace resume_table e.scenario_id e)
       (Journal.load path)
   | _ -> ());
  (* opened only once the resume table is loaded: a fresh writer
     truncates the journal *)
  let writer =
    Option.map
      (fun path ->
        Journal.open_append ~fresh:(not settings.resume)
          ?segment_bytes:settings.segment_bytes ?io:settings.journal_io path)
      settings.journal_path
  in
  {
    settings;
    sut;
    base;
    progress;
    emit;
    breaker =
      Option.map
        (fun threshold -> Breaker.create ~threshold ?metrics:settings.metrics ())
        settings.breaker;
    flaky_lock = Mutex.create ();
    flaky_ids = [];
    resume_table;
    writer;
    observing = settings.trace <> None || settings.metrics <> None;
    meters = Option.map (meters ~sut_name:sut.Suts.Sut.sut_name) settings.metrics;
  }

let journaled c id = Hashtbl.find_opt c.resume_table id

let run_one c (index, (s : Scenario.t)) =
  let { settings; sut; base; emit; _ } = c in
  emit (Progress.Started { index; id = s.id });
  let t0 = Unix.gettimeofday () in
  let attempts = ref 0 in
  let clock = if c.observing then Some (Clock.create ()) else None in
  let probe = Option.map Clock.probe clock in
  (* one sandboxed execution, watchdogged and retried; timeout
     exhaustion is a harness-phase crash, not a functional failure *)
  let execute () =
    match settings.timeout_s with
    | None ->
      incr attempts;
      Sandbox.run_scenario ?fuel:settings.fuel ?probe ~sut ~base s
    | Some timeout_s ->
      let rec attempt k =
        incr attempts;
        match
          Conferr_pool.with_timeout ~timeout_s (fun () ->
              Sandbox.run_scenario ?fuel:settings.fuel ?probe ~sut ~base s)
        with
        | Some outcome -> outcome
        | None ->
          emit (Progress.Timed_out { index; id = s.id; attempt = k });
          if k <= settings.retries then attempt (k + 1)
          else timeout_crash ~timeout_s
      in
      attempt 1
  in
  let admitted =
    match c.breaker with
    | None -> `Run
    | Some b -> Breaker.admit b ~sut_name:sut.Suts.Sut.sut_name ~class_name:s.class_name
  in
  let outcome, votes =
    match admitted with
    | `Skip bucket ->
      emit (Progress.Breaker_skipped { index; id = s.id; bucket });
      ( Outcome.Crashed
          { cause = Outcome.Breaker_open bucket; phase = Outcome.Harness;
            backtrace = "" },
        [] )
    | `Run ->
      let first = execute () in
      let verdict =
        if settings.quorum > 1 && Quorum.suspect first then
          Quorum.run ~attempts:settings.quorum (fun i ->
              if i = 0 then first else execute ())
        else { Quorum.outcome = first; attempts = [ first ]; flaky = false }
      in
      (match c.breaker with
       | None -> ()
       | Some b -> (
         match
           Breaker.note b ~sut_name:sut.Suts.Sut.sut_name
             ~class_name:s.class_name
             ~crashed:(executed_crash verdict.Quorum.outcome <> None)
         with
         | `Counted -> ()
         | `Tripped bucket -> emit (Progress.Breaker_tripped { bucket })));
      if verdict.Quorum.flaky then begin
        emit (Progress.Flaky { index; id = s.id; attempts = !attempts });
        Mutex.lock c.flaky_lock;
        c.flaky_ids <- s.id :: c.flaky_ids;
        Mutex.unlock c.flaky_lock;
        (verdict.Quorum.outcome, verdict.Quorum.attempts)
      end
      else (verdict.Quorum.outcome, [])
  in
  (match (executed_crash outcome, settings.quarantine_dir) with
   | Some crash, Some dir ->
     ignore
       (Repro.write ~dir ~sut ~base ~seed:settings.campaign_seed s crash)
   | _ -> ());
  let elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let phase_ms = match clock with Some c -> Clock.phase_ms c | None -> [] in
  let entry =
    {
      Journal.scenario_id = s.id;
      class_name = s.class_name;
      description = s.description;
      seed = scenario_seed ~campaign_seed:settings.campaign_seed s.id;
      outcome;
      elapsed_ms;
      attempts = !attempts;
      votes;
      phase_ms;
    }
  in
  (match (settings.trace, clock) with
   | Some tr, Some c -> Trace.record tr ~id:s.id ~class_name:s.class_name c
   | _ -> ());
  (match c.meters with
   | None -> ()
   | Some m ->
     Metrics.add (Metrics.handle m.outcomes (s.class_name, Outcome.label outcome)) 1.0;
     Metrics.record (Metrics.handle m.scenario_ms s.class_name) elapsed_ms;
     List.iter (fun (phase, ms) -> Metrics.record (Metrics.handle m.phase_ms phase) ms) phase_ms;
     if !attempts > 0 then
       Metrics.add (Metrics.handle m.attempts s.class_name) (float_of_int !attempts));
  Option.iter (fun w -> Journal.append w entry) c.writer;
  emit
    (Progress.Finished
       { index; id = s.id; label = Outcome.label outcome; elapsed_ms });
  (index, entry)

(* Once the cancel flag is set, a scenario not yet started is skipped:
   the result keeps the ones that ran, as a resumed run's journal keeps
   a prefix. *)
let run_batch c pending =
  let cancelled () = Option.fold ~none:false ~some:Atomic.get c.settings.cancel in
  Conferr_pool.map ~jobs:c.settings.jobs
    (fun _ p -> if cancelled () then None else Some (run_one c p))
    pending
  |> Array.to_seq |> Seq.filter_map Fun.id |> Array.of_seq

let close_campaign c entries =
  (match c.settings.quarantine_dir with
   | Some dir -> Repro.record_flaky ~dir c.flaky_ids
   | None -> ());
  Option.iter
    (fun path ->
      Journal.checkpoint ?io:c.settings.journal_io
        ?segment_bytes:c.settings.segment_bytes ?writer:c.writer path entries)
    c.settings.journal_path

let with_campaign ?(settings = default_settings) ?(on_event = Progress.log_event)
    ~sut ~base ~total f =
  let c = open_campaign ~settings ~on_event ~sut ~base ~total in
  let entries =
    Fun.protect ~finally:(fun () -> Option.iter Journal.close c.writer) (fun () -> f c)
  in
  close_campaign c entries;
  (entries, Progress.snapshot c.progress)

let run_from ?(settings = default_settings) ?on_event ~sut ~base ~scenarios () =
  let settings =
    match clamp_jobs settings.jobs with
    | Ok (jobs, _) -> { settings with jobs }
    | Error _ -> { settings with jobs = 1 }
  in
  let arr = Array.of_list scenarios in
  let total = Array.length arr in
  let entries, snapshot =
    with_campaign ~settings ?on_event ~sut ~base ~total (fun c ->
        let pending =
          Array.to_list arr
          |> List.mapi (fun i s -> (i, s))
          |> List.filter (fun (_, (s : Scenario.t)) -> journaled c s.id = None)
          |> Array.of_list
        in
        let resumed = total - Array.length pending in
        if resumed > 0 then c.emit (Progress.Resumed { count = resumed });
        (* assemble the profile in scenario-list order, merging journaled
           and freshly-run entries; the journal is checkpointed to them *)
        let slots = Array.make total None in
        Array.iter (fun (index, entry) -> slots.(index) <- Some entry)
          (run_batch c pending);
        Array.iteri
          (fun i (s : Scenario.t) ->
            if slots.(i) = None then slots.(i) <- journaled c s.id)
          arr;
        List.filter_map Fun.id (Array.to_list slots))
  in
  let profile_entries =
    List.map
      (fun (e : Journal.entry) ->
        {
          Profile.scenario_id = e.scenario_id;
          class_name = e.class_name;
          description = e.description;
          outcome = e.outcome;
        })
      entries
  in
  (Profile.make ~sut_name:sut.Suts.Sut.sut_name profile_entries, snapshot)
