module Engine = Conferr.Engine

exception Out_of_fuel = Engine.Out_of_fuel

(* Fuel cells are keyed by thread id: each sandboxed call runs in one
   thread (either a pool worker's own thread or the executor's timeout
   watchdog thread), and a watchdog thread abandoned by its timeout must
   keep burning its *own* fuel, not the budget of the scenario that
   replaced it. *)
let cells : (int, int ref * int) Hashtbl.t = Hashtbl.create 8

let cells_lock = Mutex.create ()

let with_lock f =
  Mutex.lock cells_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cells_lock) f

let current_cell () =
  let tid = Thread.id (Thread.self ()) in
  with_lock (fun () -> Hashtbl.find_opt cells tid)

(* Cells in the table: while there are none, [tick] skips the lock,
   which every domain's allocation storm would otherwise contend on. *)
let fueled = Atomic.make 0

let with_fuel fuel f =
  match fuel with
  | None -> f ()
  | Some budget ->
    let tid = Thread.id (Thread.self ()) in
    Atomic.incr fueled;
    with_lock (fun () -> Hashtbl.replace cells tid (ref budget, budget));
    Fun.protect
      ~finally:(fun () ->
        with_lock (fun () -> Hashtbl.remove cells tid);
        Atomic.decr fueled)
      f

let tick () =
  if Atomic.get fueled > 0 then
    match current_cell () with
    | None -> ()
    | Some (remaining, budget) ->
      decr remaining;
      if !remaining < 0 then raise (Out_of_fuel budget)

let boot_and_test ?fuel ?probe sut files =
  with_fuel fuel (fun () -> Engine.boot_and_test ?probe sut files)

let run_scenario ?fuel ?probe ~sut ~base s =
  with_fuel fuel (fun () -> Engine.run_scenario ?probe ~sut ~base s)
