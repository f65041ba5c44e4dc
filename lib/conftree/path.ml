type t = int list

let child p i = p @ [ i ]

let parent p =
  match List.rev p with
  | [] -> None
  | last :: rev_prefix -> Some (List.rev rev_prefix, last)

let rec is_prefix ~prefix p =
  match (prefix, p) with
  | [], _ -> true
  | _, [] -> false
  | a :: pre, b :: rest -> a = b && is_prefix ~prefix:pre rest

let rec compare a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
    let c = Int.compare x y in
    if c <> 0 then c else compare xs ys

let equal a b = compare a b = 0

let rec adjust_after_delete ~deleted p =
  match (deleted, p) with
  | [], _ -> None (* whole tree deleted *)
  | [ d ], i :: rest ->
    if i = d && rest = [] then None
    else if i = d then None (* inside the deleted subtree *)
    else if i > d then Some ((i - 1) :: rest)
    else Some (i :: rest)
  | _, [] -> Some [] (* p is an ancestor of the deleted node *)
  | d :: ds, i :: rest ->
    if i <> d then Some (i :: rest)
    else
      (match adjust_after_delete ~deleted:ds rest with
       | None -> None
       | Some rest' -> Some (i :: rest'))

let rec adjust_after_insert ~inserted p =
  match (inserted, p) with
  | [], _ -> p
  | [ d ], i :: rest -> if i >= d then (i + 1) :: rest else i :: rest
  | _, [] -> []
  | d :: ds, i :: rest ->
    if i <> d then i :: rest else i :: adjust_after_insert ~inserted:ds rest

let pp fmt p =
  if p = [] then Format.pp_print_string fmt "/"
  else List.iter (fun i -> Format.fprintf fmt "/%d" i) p

let to_string p = Format.asprintf "%a" pp p
