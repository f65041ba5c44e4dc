module Metrics = Conferr_obsv.Metrics

let src = Logs.Src.create "conferr.exec" ~doc:"ConfErr campaign executor"

module Log = (val Logs.src_log src : Logs.LOG)

type event =
  | Started of { index : int; id : string }
  | Finished of { index : int; id : string; label : string; elapsed_ms : float }
  | Timed_out of { index : int; id : string; attempt : int }
  | Resumed of { count : int }
  | Flaky of { index : int; id : string; attempts : int }
  | Breaker_skipped of { index : int; id : string; bucket : string }
  | Breaker_tripped of { bucket : string }

(* The counters live in a metrics registry (doc/obsv.md) instead of a
   private record, so a campaign run with [--metrics] exports exactly
   the numbers the progress block prints — one source of truth. *)
type t = {
  total : int;
  t0 : float;
  reg : Metrics.t;
  (* the per-scenario counters, each resolved at its first use *)
  started : (unit, Metrics.counter) Metrics.handles;
  finished : (string, Metrics.counter) Metrics.handles;  (* by outcome *)
}

let m_started = "conferr_scenarios_started_total"
let m_finished = "conferr_scenarios_finished_total"
let m_resumed = "conferr_scenarios_resumed_total"
let m_timeouts = "conferr_timeouts_total"
let m_retries = "conferr_timeout_retries_total"
let m_flaky = "conferr_flaky_total"
let m_breaker_skipped = "conferr_breaker_skipped_total"
let m_breaker_trips = "conferr_breaker_trips_total"

let create ?metrics ~total () =
  let reg = match metrics with Some r -> r | None -> Metrics.create () in
  Metrics.declare reg Metrics.Counter m_started ~help:"Scenarios handed to a worker this run";
  Metrics.declare reg Metrics.Counter m_finished ~help:"Scenarios classified this run, by outcome label";
  Metrics.declare reg Metrics.Counter m_resumed ~help:"Scenarios restored from the journal, not re-run";
  Metrics.declare reg Metrics.Counter m_timeouts ~help:"Deadline overruns, including retried attempts";
  Metrics.declare reg Metrics.Counter m_retries ~help:"Re-runs after a timeout";
  Metrics.declare reg Metrics.Counter m_flaky ~help:"Scenarios whose quorum attempts disagreed";
  Metrics.declare reg Metrics.Counter m_breaker_skipped
    ~help:"Scenarios classified without execution while a breaker was open";
  Metrics.declare reg Metrics.Counter m_breaker_trips
    ~help:"Circuit-breaker trips, by (SUT x fault class) bucket";
  let finished label = Metrics.counter reg m_finished ~labels:[ ("outcome", label) ] in
  { total; t0 = Unix.gettimeofday (); reg; finished = Metrics.handles finished;
    started = Metrics.handles (fun () -> Metrics.counter reg m_started) }

let note t event =
  match event with
  | Started _ -> Metrics.add (Metrics.handle t.started ()) 1.0
  | Finished { label; _ } -> Metrics.add (Metrics.handle t.finished label) 1.0
  | Timed_out { attempt; _ } ->
    Metrics.inc t.reg m_timeouts;
    if attempt > 1 then Metrics.inc t.reg m_retries
  | Resumed { count } -> Metrics.inc t.reg m_resumed ~by:(float_of_int count)
  | Flaky _ -> Metrics.inc t.reg m_flaky
  | Breaker_skipped _ -> Metrics.inc t.reg m_breaker_skipped
  | Breaker_tripped { bucket } -> Metrics.inc t.reg m_breaker_trips ~labels:[ ("bucket", bucket) ]

type snapshot = {
  total : int;
  resumed : int;
  started : int;
  finished : int;
  timeouts : int;
  retries : int;
  flaky : int;
  breaker_skipped : int;
  by_label : (string * int) list;
  breaker_trips : (string * int) list;
  crashed : int;
  elapsed_s : float;
  rate : float;
}

let read t name = match Metrics.value t.reg name with Some v -> int_of_float v | None -> 0

let labeled t name key =
  List.filter_map
    (fun (labels, v) ->
      match List.assoc_opt key labels with
      | Some l -> Some (l, int_of_float v)
      | None -> None)
    (Metrics.family t.reg name)

let snapshot t =
  let elapsed_s = Unix.gettimeofday () -. t.t0 in
  let by_label = labeled t m_finished "outcome" in
  let finished = List.fold_left (fun acc (_, n) -> acc + n) 0 by_label in
  {
    total = t.total;
    resumed = read t m_resumed;
    started = read t m_started;
    finished;
    timeouts = read t m_timeouts;
    retries = read t m_retries;
    flaky = read t m_flaky;
    breaker_skipped = read t m_breaker_skipped;
    by_label;
    breaker_trips = labeled t m_breaker_trips "bucket";
    crashed = Option.value ~default:0 (List.assoc_opt "crashed" by_label);
    elapsed_s;
    rate = (if elapsed_s > 0. then float_of_int finished /. elapsed_s else 0.);
  }

(* The hardening lines only appear when their counters are nonzero, so a
   clean campaign renders exactly the block it always has. *)
let render s =
  let labels =
    if s.by_label = [] then "-"
    else
      String.concat ", "
        (List.map (fun (l, n) -> Printf.sprintf "%s %d" l n) s.by_label)
  in
  let extra =
    List.concat
      [
        (if s.flaky > 0 then
           [ Printf.sprintf "  flaky:     %d (quorum disagreed; quarantined)" s.flaky ]
         else []);
        (if s.breaker_skipped > 0 then
           [
             Printf.sprintf "  breaker:   %d scenario(s) skipped while open"
               s.breaker_skipped;
           ]
         else []);
        List.map
          (fun (bucket, n) ->
            Printf.sprintf "  breaker:   %s tripped %d time%s" bucket n
              (if n = 1 then "" else "s"))
          s.breaker_trips;
      ]
  in
  String.concat "\n"
    ([
       "Campaign execution";
       Printf.sprintf "  scenarios: %d total, %d run, %d resumed from journal"
         s.total s.finished s.resumed;
       Printf.sprintf "  outcomes:  %s" labels;
       Printf.sprintf "  timeouts:  %d (%d retried)" s.timeouts s.retries;
     ]
    @ extra
    @ [
        Printf.sprintf "  wall time: %.2fs (%.0f scenarios/s)" s.elapsed_s s.rate;
        "";
      ])

(* One JSON object per event, newline-free (the codec escapes to 7-bit
   ASCII), so the daemon can stream a campaign as JSON lines
   (doc/serve.md).  [ms] is wall-clock and therefore excluded from the
   determinism contract. *)
let event_to_json event =
  let module J = Conferr_obsv.Json in
  let obj kind fields = J.Obj (("event", J.Str kind) :: fields) in
  match event with
  | Started { index; id } ->
    obj "started" [ ("index", J.Num (float_of_int index)); ("id", J.Str id) ]
  | Finished { index; id; label; elapsed_ms } ->
    obj "finished"
      [
        ("index", J.Num (float_of_int index)); ("id", J.Str id);
        ("outcome", J.Str label); ("ms", J.Num elapsed_ms);
      ]
  | Timed_out { index; id; attempt } ->
    obj "timeout"
      [
        ("index", J.Num (float_of_int index)); ("id", J.Str id);
        ("attempt", J.Num (float_of_int attempt));
      ]
  | Resumed { count } -> obj "resumed" [ ("count", J.Num (float_of_int count)) ]
  | Flaky { index; id; attempts } ->
    obj "flaky"
      [
        ("index", J.Num (float_of_int index)); ("id", J.Str id);
        ("attempts", J.Num (float_of_int attempts));
      ]
  | Breaker_skipped { index; id; bucket } ->
    obj "breaker-skipped"
      [
        ("index", J.Num (float_of_int index)); ("id", J.Str id);
        ("bucket", J.Str bucket);
      ]
  | Breaker_tripped { bucket } ->
    obj "breaker-tripped" [ ("bucket", J.Str bucket) ]

let log_event = function
  | Started { index; id } -> Log.debug (fun m -> m "start %s (#%d)" id index)
  | Finished { id; label; elapsed_ms; _ } ->
    Log.debug (fun m -> m "done  %s [%s] %.2fms" id label elapsed_ms)
  | Timed_out { id; attempt; _ } ->
    Log.warn (fun m -> m "timeout %s (attempt %d)" id attempt)
  | Resumed { count } ->
    Log.info (fun m -> m "resumed %d scenario(s) from journal" count)
  | Flaky { id; attempts; _ } ->
    Log.warn (fun m -> m "flaky %s (%d attempts disagreed)" id attempts)
  | Breaker_skipped { id; bucket; _ } ->
    Log.warn (fun m -> m "breaker open: skipped %s [%s]" id bucket)
  | Breaker_tripped { bucket } ->
    Log.warn (fun m -> m "breaker tripped [%s]" bucket)
