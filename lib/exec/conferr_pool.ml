let recommended_jobs () = Domain.recommended_domain_count ()

(* The longest range of indices one domain takes at a time. *)
let range = 16

(* One loop for every [jobs] (the contract is in the interface): the
   caller takes ranges too, so a [jobs = 1] map, or one of at most
   [range] elements, never leaves the caller's domain.  Threads on one
   domain switch only at blocking calls and the runtime's tick, so each
   range ends with a yield: that is all the daemon's fairness. *)
let map ?(jobs = 1) f a =
  let n = Array.length a in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let failure = Atomic.make None in
  let rec work () =
    let lo = Atomic.fetch_and_add next range in
    if lo < n && Atomic.get failure = None then begin
      (try
         for i = lo to min n (lo + range) - 1 do
           results.(i) <- Some (f i a.(i))
         done
       with exn ->
         (* keep only the first failure; racing CAS losers drop theirs *)
         ignore
           (Atomic.compare_and_set failure None
              (Some (exn, Printexc.get_raw_backtrace ()))));
      Thread.yield ();
      work ()
    end
  in
  let helpers = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join !helpers)
    (fun () ->
      for _ = 2 to min jobs ((n + range - 1) / range) do
        helpers := Domain.spawn work :: !helpers
      done;
      work ());
  match Atomic.get failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> Array.map Option.get results

(* ------------------------------------------------------------------ *)
(* Watchdogged execution                                               *)
(* ------------------------------------------------------------------ *)

(* One cell drives the whole race: the worker CASes [Running -> Done r];
   the caller, on deadline, CASes [Running -> Abandoned].  Whoever loses
   the CAS learns the other side won, so the abandoned-worker gauge is
   incremented exactly when a worker is left behind and decremented
   exactly once when that worker finally returns. *)
type 'a watchdog_state =
  | Running
  | Done of ('a, exn) result
  | Abandoned

let abandoned = Atomic.make 0

let abandoned_workers () = Atomic.get abandoned

let with_timeout ~timeout_s f =
  let state = Atomic.make Running in
  let worker =
    Thread.create
      (fun () ->
        let r = match f () with v -> Ok v | exception exn -> Error exn in
        if not (Atomic.compare_and_set state Running (Done r)) then
          (* the caller gave up on us; it already counted this thread *)
          Atomic.decr abandoned)
      ()
  in
  let finish r =
    Thread.join worker;
    match r with Ok v -> Some v | Error exn -> raise exn
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  (* Poll with exponential backoff (0.5 ms doubling to 20 ms, never past
     the deadline): short scenarios are detected almost immediately, and
     a caller stuck behind a long deadline no longer burns a 2 ms-period
     wakeup loop for the whole wait. *)
  let rec wait delay =
    match Atomic.get state with
    | Done r -> finish r
    | Abandoned -> assert false
    | Running ->
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then begin
        Atomic.incr abandoned;
        if Atomic.compare_and_set state Running Abandoned then None
        else begin
          (* the worker slipped in just under the wire *)
          Atomic.decr abandoned;
          match Atomic.get state with
          | Done r -> finish r
          | Running | Abandoned -> assert false
        end
      end
      else begin
        Thread.delay (Float.min delay remaining);
        wait (Float.min (delay *. 2.) 0.02)
      end
  in
  wait 0.0005
