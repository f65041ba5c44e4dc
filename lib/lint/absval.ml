type shape = Sh_any | Sh_word | Sh_path | Sh_empty

type t =
  | Bot
  | Ival of int * int
  | Eset of string list
  | Bval of bool option
  | Sval of shape
  | Top

let point n = Ival (n, n)

let eset members =
  match List.sort_uniq compare (List.map String.lowercase_ascii members) with
  | [] -> Bot
  | ms -> Eset ms

let bval b = Bval (Some b)

let classify_shape s =
  if s = "" then Sh_empty
  else if String.contains s '/' then Sh_path
  else if String.exists (fun c -> c = ' ' || c = '\t') s then Sh_any
  else Sh_word

let sval s = Sval (classify_shape s)

let shape_join a b =
  if a = b then a
  else
    match (a, b) with
    | Sh_empty, x | x, Sh_empty -> if x = Sh_empty then Sh_empty else Sh_any
    | _ -> Sh_any

let contains_int v n =
  match v with
  | Top -> true
  | Ival (lo, hi) -> lo <= n && n <= hi
  | _ -> false

let contains_string v s =
  match v with
  | Top -> true
  | Bot -> false
  | Ival _ -> ( match int_of_string_opt (String.trim s) with
    | Some n -> contains_int v n
    | None -> false)
  | Eset ms -> List.mem (String.lowercase_ascii s) ms
  | Bval None ->
    List.mem
      (String.lowercase_ascii s)
      [ "on"; "off"; "true"; "false"; "yes"; "no"; "1"; "0" ]
  | Bval (Some true) -> List.mem (String.lowercase_ascii s) [ "on"; "true"; "yes"; "1" ]
  | Bval (Some false) ->
    List.mem (String.lowercase_ascii s) [ "off"; "false"; "no"; "0" ]
  | Sval sh -> shape_join sh (classify_shape s) = sh
