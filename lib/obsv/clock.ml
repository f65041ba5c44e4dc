type mark = { phase : Span.phase; seq : int; start_s : float; dur_s : float }

type t = {
  t0 : float;
  lock : Mutex.t;
  mutable marks_rev : mark list;
  mutable next_seq : int;
}

let create () =
  { t0 = Unix.gettimeofday (); lock = Mutex.create (); marks_rev = []; next_seq = 0 }

let push t phase start_s dur_s =
  Mutex.lock t.lock;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.marks_rev <- { phase; seq; start_s; dur_s } :: t.marks_rev;
  Mutex.unlock t.lock

let probe t =
  {
    Span.wrap =
      (fun phase f ->
        let start_s = Unix.gettimeofday () in
        match f () with
        | v ->
          push t phase start_s (Unix.gettimeofday () -. start_s);
          v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          push t phase start_s (Unix.gettimeofday () -. start_s);
          Printexc.raise_with_backtrace e bt);
  }

let marks t =
  Mutex.lock t.lock;
  let ms = List.rev t.marks_rev in
  Mutex.unlock t.lock;
  ms

let started_s t = t.t0

let phase_ms t =
  let ms = marks t in
  List.filter_map
    (fun phase ->
      match List.filter (fun m -> m.phase = phase) ms with
      | [] -> None
      | passes ->
        let total = List.fold_left (fun acc m -> acc +. m.dur_s) 0.0 passes in
        Some (Span.label phase, total *. 1000.))
    Span.all
