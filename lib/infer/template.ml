let mine = Conferr_exec.Signature.normalize

let is_digit c = c >= '0' && c <= '9'

let ints s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_digit s.[!i] then begin
      let j = ref !i in
      while !j < n && is_digit s.[!j] do incr j done;
      (match int_of_string_opt (String.sub s !i (!j - !i)) with
      | Some v -> out := v :: !out
      | None -> ());
      i := !j
    end
    else incr i
  done;
  List.rev !out

let parenthesized s =
  match String.rindex_opt s '(' with
  | None -> None
  | Some opening -> (
    match String.index_from_opt s opening ')' with
    | None -> None
    | Some closing -> Some (String.sub s (opening + 1) (closing - opening - 1)))

let is_word c =
  (c >= 'a' && c <= 'z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-'

let mentions ~name s =
  let name = String.lowercase_ascii name in
  let s = String.lowercase_ascii s in
  let ln = String.length name and ls = String.length s in
  ln > 0
  &&
  let rec scan from =
    if from + ln > ls then false
    else
      match String.index_from_opt s from name.[0] with
      | None -> false
      | Some i ->
        if
          i + ln <= ls
          && String.sub s i ln = name
          && (i = 0 || not (is_word s.[i - 1]))
          && (i + ln = ls || not (is_word s.[i + ln]))
        then true
        else scan (i + 1)
  in
  scan 0
