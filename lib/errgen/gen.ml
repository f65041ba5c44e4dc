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

let of_list xs =
  let rest = ref xs in
  make (fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
        rest := tl;
        Some x)

let of_seq seq =
  let rest = ref seq in
  make (fun () ->
      match !rest () with
      | Seq.Nil -> None
      | Seq.Cons (x, tl) ->
        rest := tl;
        Some x)

let unfold step init =
  let state = ref (Some init) in
  make (fun () ->
      match !state with
      | None -> None
      | Some s ->
        (match step s with
         | None ->
           state := None;
           None
         | Some (x, s') ->
           state := Some s';
           Some x))

let seeded ~seed draw =
  let rng = Rng.create seed in
  make (fun () -> draw rng)

let map f g = make (fun () -> Option.map f (next g))

let filter p g =
  make (fun () ->
      let rec go () =
        match next g with
        | None -> None
        | Some x when p x -> Some x
        | Some _ -> go ()
      in
      go ())

let append a b =
  make (fun () ->
      match next a with
      | Some _ as r -> r
      | None -> next b)

let interleave gens =
  let q = Queue.create () in
  List.iter (fun g -> Queue.add g q) gens;
  make (fun () ->
      (* try each remaining stream once, dropping exhausted ones *)
      let rec go attempts =
        if attempts = 0 || Queue.is_empty q then None
        else
          let g = Queue.pop q in
          match next g with
          | Some x ->
            Queue.add g q;
            Some x
          | None -> go (attempts - 1)
      in
      go (Queue.length q))

let take n g =
  let rec go acc k =
    if k <= 0 then List.rev acc
    else
      match next g with
      | None -> List.rev acc
      | Some x -> go (x :: acc) (k - 1)
  in
  go [] n

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
