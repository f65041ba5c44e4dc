module Strutil = Conferr_util.Strutil
module Texttable = Conferr_util.Texttable

let nearest ~vocabulary word =
  let n = String.length word in
  List.fold_left
    (fun best candidate ->
      match best with
      (* the distance is at least the length difference: a candidate
         that cannot tie the best so far is not measured *)
      | Some (_, bd) when abs (String.length candidate - n) > bd -> best
      | _ -> (
        let d = Strutil.damerau_levenshtein word candidate in
        match best with
        | None -> Some (candidate, d)
        | Some (b, bd) ->
          if d < bd || (d = bd && candidate < b) then Some (candidate, d) else best))
    None vocabulary

let uniquely_nearest ~vocabulary word =
  match nearest ~vocabulary word with
  | None -> None
  | Some (best, d) ->
    let ties =
      List.filter (fun c -> Strutil.damerau_levenshtein word c = d) vocabulary
    in
    if List.length ties = 1 then Some best else None

let recovery_rate ~vocabulary ~rng ?(samples = 50) word =
  let recovered = ref 0 and drawn = ref 0 in
  let pool = Errgen.Typo.pool word in
  for _ = 1 to samples do
    match Errgen.Typo.draw_any rng pool with
    | None -> ()
    | Some (typoed, _) ->
      incr drawn;
      (* a typo that happens to be another valid name would be accepted,
         not suggested about *)
      if
        (not (List.mem typoed vocabulary))
        && uniquely_nearest ~vocabulary typoed = Some word
      then incr recovered
  done;
  if !drawn = 0 then 0. else float_of_int !recovered /. float_of_int !drawn

type summary = { per_word : (string * float) list; mean : float }

let recoverability ~vocabulary ~rng ?(samples = 50) () =
  let per_word =
    List.map (fun w -> (w, recovery_rate ~vocabulary ~rng ~samples w)) vocabulary
  in
  let mean =
    if per_word = [] then 0.
    else
      List.fold_left (fun acc (_, r) -> acc +. r) 0. per_word
      /. float_of_int (List.length per_word)
  in
  { per_word; mean }

let render { per_word; mean } =
  let rows =
    List.map
      (fun (w, r) -> [ w; Printf.sprintf "%.0f%%" (100. *. r) ])
      per_word
  in
  Printf.sprintf
    "Name-typo recoverability with a did-you-mean suggester (mean %.0f%%)\n%s"
    (100. *. mean)
    (Texttable.render
       ~aligns:[ Texttable.Left; Texttable.Right ]
       ~header:[ "directive"; "recoverable typos" ]
       rows)
