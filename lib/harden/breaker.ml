type bucket = {
  mutable consecutive : int;  (* harness crashes since the last success *)
  mutable countdown : int;    (* scenarios still to skip while open *)
  mutable backoff : int;      (* width of the next skip window *)
}

module Metrics = Conferr_obsv.Metrics

(* No skip window grows past this many scenarios. *)
let max_backoff = 1024

type t = {
  threshold : int;
  base_backoff : int;
  lock : Mutex.t;
  buckets : (string * string, bucket) Hashtbl.t;
  metrics : Metrics.t option;
}

let create ?(threshold = 5) ?(base_backoff = 8) ?metrics () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  {
    threshold;
    base_backoff = max 1 base_backoff;
    lock = Mutex.create ();
    buckets = Hashtbl.create 16;
    metrics;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bucket_of t key =
  match Hashtbl.find_opt t.buckets key with
  | Some b -> b
  | None ->
    let b =
      { consecutive = 0; countdown = 0; backoff = t.base_backoff }
    in
    Hashtbl.add t.buckets key b;
    b

let bucket_name (sut_name, class_name) = sut_name ^ " x " ^ class_name

(* Gauges only: the skip/trip *counters* are the executor's progress
   events (conferr_breaker_* in Progress), so a shared registry never
   double-counts.  These expose the live breaker state instead. *)
let publish t (sut_name, class_name) (b : bucket) =
  match t.metrics with
  | None -> ()
  | Some reg ->
    let labels = [ ("sut", sut_name); ("class", class_name) ] in
    Metrics.set reg "conferr_breaker_consecutive" ~labels (float_of_int b.consecutive);
    Metrics.set reg "conferr_breaker_backoff" ~labels (float_of_int b.backoff);
    Metrics.set reg "conferr_breaker_open" ~labels (float_of_int b.countdown)

let admit t ~sut_name ~class_name =
  let key = (sut_name, class_name) in
  with_lock t (fun () ->
      let b = bucket_of t key in
      if b.countdown > 0 then begin
        b.countdown <- b.countdown - 1;
        publish t key b;
        `Skip (bucket_name key)
      end
      else `Run)

let note t ~sut_name ~class_name ~crashed =
  let key = (sut_name, class_name) in
  with_lock t (fun () ->
      let b = bucket_of t key in
      let verdict =
        if crashed then begin
          b.consecutive <- b.consecutive + 1;
          if b.consecutive >= t.threshold && b.countdown = 0 then begin
            (* trip (or re-trip after a failed half-open probe): skip the
               next [backoff] scenarios of this bucket, then probe again
               with a doubled window queued behind it *)
            b.countdown <- b.backoff;
            b.backoff <- min (b.backoff * 2) max_backoff;
            `Tripped (bucket_name key)
          end
          else `Counted
        end
        else begin
          b.consecutive <- 0;
          b.countdown <- 0;
          b.backoff <- t.base_backoff;
          `Counted
        end
      in
      publish t key b;
      verdict)
