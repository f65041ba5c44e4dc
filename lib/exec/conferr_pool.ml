module Scheduler = Scheduler

let recommended_jobs () = Domain.recommended_domain_count ()

(* [map] is a one-tenant wrapper over {!Scheduler} (doc/serve.md): the
   worker-domain pool that the campaign daemon multiplexes many
   campaigns over also serves the one-shot CLI path, so there is one
   scheduling code path to trust.  Results land in their input slot,
   the first exception wins and aborts the remaining work, and
   [jobs <= 1] is the plain sequential loop. *)
let map ?(jobs = 1) f a =
  let n = Array.length a in
  if n = 0 then [||]
  else if jobs <= 1 then Array.mapi f a
  else begin
    let results = Array.make n None in
    let failure = Atomic.make None in
    let sched = Scheduler.create ~jobs:(min jobs n) () in
    let tenant = Scheduler.tenant ~name:"map" sched in
    Fun.protect
      ~finally:(fun () -> Scheduler.drain sched)
      (fun () ->
        for i = 0 to n - 1 do
          ignore
            (Scheduler.submit tenant (fun () ->
                 if Atomic.get failure = None then
                   match f i a.(i) with
                   | r -> results.(i) <- Some r
                   | exception exn ->
                     (* keep only the first failure; racing CAS losers
                        drop theirs *)
                     ignore
                       (Atomic.compare_and_set failure None
                          (Some (exn, Printexc.get_raw_backtrace ())))))
        done;
        Scheduler.wait tenant);
    match Atomic.get failure with
    | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None ->
      Array.map
        (function
          | Some r -> r
          | None -> invalid_arg "Conferr_pool.map: worker aborted before completion")
        results
  end

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
