module Rng = Conferr_util.Rng

type 'a t = { mutable pull : unit -> 'a option }

let exhausted () = None

let make f =
  let g = { pull = exhausted } in
  g.pull <-
    (fun () ->
      match f () with
      | Some _ as r -> r
      | None ->
        g.pull <- exhausted;
        None);
  g

let next g = g.pull ()

(* After this many consecutive empty rounds the generator is assumed
   drained for good (guards an unbounded stream over a generator that
   yields nothing for this configuration). *)
let max_empty_rounds = 8

let of_generator ?rounds ~prefix ~seed generate set =
  let round = ref 0 in
  let pending = ref [] in
  let finished = ref false in
  let refill () =
    match rounds with
    | Some n when !round >= n -> finished := true
    | _ ->
      let r = !round in
      incr round;
      let rng =
        (* round 0 is byte-identical to the classic one-shot faultload
           for this seed; later rounds get independent derived seeds *)
        if r = 0 then Rng.create seed
        else Rng.create (Hashtbl.hash (seed, r, prefix))
      in
      let scenarios = generate ~rng set in
      pending :=
        if r = 0 then scenarios
        else
          Scenario.relabel_ids ~prefix:(Printf.sprintf "%s-r%d" prefix r)
            scenarios
  in
  make (fun () ->
      let rec go empty_rounds =
        match !pending with
        | x :: tl ->
          pending := tl;
          Some x
        | [] ->
          if !finished || empty_rounds >= max_empty_rounds then begin
            finished := true;
            None
          end
          else begin
            refill ();
            go (empty_rounds + 1)
          end
      in
      go 0)
