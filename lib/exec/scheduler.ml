type task = unit -> unit

type tenant = {
  tname : string;
  queue : task Queue.t;
  max_active : int;
  mutable active : int;
  mutable cancelled : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  sched : t;
}

and t = {
  lock : Mutex.t;
  work : Condition.t;  (* workers sleep here *)
  idle : Condition.t;  (* wait/drain callers sleep here *)
  mutable ring : tenant list;  (* scan order; rotated on every pick *)
  mutable draining : bool;
  mutable stopped : bool;
  mutable workers : unit Domain.t list;
  pool_jobs : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let runnable tn =
  (not tn.cancelled) && tn.active < tn.max_active && not (Queue.is_empty tn.queue)

(* Pick the first runnable tenant and rotate the ring so the next scan
   starts just after it: served-last goes to the back, which is exactly
   round-robin fairness.  Caller holds the lock. *)
let pick t =
  let rec scan before = function
    | [] -> None
    | tn :: after ->
      if runnable tn then begin
        t.ring <- after @ List.rev_append before [ tn ];
        let task = Queue.pop tn.queue in
        tn.active <- tn.active + 1;
        Some (tn, task)
      end
      else scan (tn :: before) after
  in
  scan [] t.ring

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    let next =
      let rec await () =
        if t.stopped then None
        else
          match pick t with
          | Some _ as p -> p
          | None ->
            Condition.wait t.work t.lock;
            await ()
      in
      await ()
    in
    Mutex.unlock t.lock;
    match next with
    | None -> ()
    | Some (tn, task) ->
      (match task () with
       | () -> ()
       | exception exn ->
         let bt = Printexc.get_raw_backtrace () in
         locked t (fun () ->
             if tn.failure = None then tn.failure <- Some (exn, bt)));
      locked t (fun () ->
          tn.active <- tn.active - 1;
          (* finishing may unblock this tenant's next queued task *)
          Condition.signal t.work;
          (* wait, retire and drain all wait for a tenant with nothing
             queued or running: wake them only then, not per task *)
          if tn.active = 0 && Queue.is_empty tn.queue then Condition.broadcast t.idle);
      loop ()
  in
  loop ()

let create ?(jobs = 1) () =
  let jobs = max 1 jobs in
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      ring = [];
      draining = false;
      stopped = false;
      workers = [];
      pool_jobs = jobs;
    }
  in
  t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let tenant ?max_active ?(name = "tenant") t =
  let tn =
    {
      tname = name;
      queue = Queue.create ();
      max_active = (match max_active with Some n -> max 1 n | None -> t.pool_jobs);
      active = 0;
      cancelled = false;
      failure = None;
      sched = t;
    }
  in
  locked t (fun () -> t.ring <- t.ring @ [ tn ]);
  tn

let tenants t = locked t (fun () -> List.map (fun tn -> tn.tname) t.ring)

let submit tn task =
  let t = tn.sched in
  locked t (fun () ->
      if t.draining || t.stopped || tn.cancelled then `Rejected
      else begin
        Queue.push task tn.queue;
        Condition.signal t.work;
        `Queued
      end)

let cancel tn =
  let t = tn.sched in
  locked t (fun () ->
      tn.cancelled <- true;
      let dropped = Queue.length tn.queue in
      Queue.clear tn.queue;
      Condition.broadcast t.idle;
      dropped)

let retire tn =
  let t = tn.sched in
  locked t (fun () ->
      tn.cancelled <- true;
      Queue.clear tn.queue;
      Condition.broadcast t.idle;
      (* drain waits on the ring's running tasks: leave it only idle *)
      while tn.active > 0 do
        Condition.wait t.idle t.lock
      done;
      t.ring <- List.filter (fun x -> x != tn) t.ring)

let wait tn =
  let t = tn.sched in
  let failure =
    locked t (fun () ->
        while not (Queue.is_empty tn.queue) || tn.active > 0 do
          Condition.wait t.idle t.lock
        done;
        let f = tn.failure in
        tn.failure <- None;
        f)
  in
  match failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ()

let drain t =
  let workers =
    locked t (fun () ->
        if not t.draining then begin
          t.draining <- true;
          List.iter (fun tn -> Queue.clear tn.queue) t.ring;
          Condition.broadcast t.idle
        end;
        while List.exists (fun tn -> tn.active > 0) t.ring do
          Condition.wait t.idle t.lock
        done;
        t.stopped <- true;
        Condition.broadcast t.work;
        let ws = t.workers in
        t.workers <- [];
        ws)
  in
  List.iter Domain.join workers
