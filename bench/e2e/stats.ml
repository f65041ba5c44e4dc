(* Order statistics over measured samples. *)

(* Linearly interpolated quantile (the "type 7" estimator numpy and R
   default to); nan on no samples. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = truncate pos in
    if i >= Array.length a - 1 then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
