let is_prefix ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let drop_prefix ~prefix s =
  if is_prefix ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let split_on_first c s =
  match String.index_opt s c with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let trim = String.trim

let fields s =
  (* one scan, from the end so that the fields come out in order;
     [stop] ends the field being read, -1 between fields *)
  let rec scan acc stop i =
    if i < 0 then if stop < 0 then acc else String.sub s 0 stop :: acc
    else if s.[i] = ' ' || s.[i] = '\t' then
      let acc = if stop < 0 then acc else String.sub s (i + 1) (stop - i - 1) :: acc in
      scan acc (-1) (i - 1)
    else scan acc (if stop < 0 then i + 1 else stop) (i - 1)
  in
  scan [] (-1) (String.length s - 1)

(* from [i] on; a top-level loop, so that a comparison allocates nothing *)
let rec equal_ci_from a b i =
  i = String.length a
  || (Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i] && equal_ci_from a b (i + 1))

let equal_ci a b = String.length a = String.length b && equal_ci_from a b 0

let insert_char s i c =
  if i < 0 || i > String.length s then invalid_arg "Strutil.insert_char";
  String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)

let delete_char s i =
  if i < 0 || i >= String.length s then invalid_arg "Strutil.delete_char";
  String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)

let replace_char s i c =
  if i < 0 || i >= String.length s then invalid_arg "Strutil.replace_char";
  String.mapi (fun j ch -> if j = i then c else ch) s

let swap_chars s i =
  if i < 0 || i + 1 >= String.length s then invalid_arg "Strutil.swap_chars";
  String.mapi
    (fun j ch -> if j = i then s.[i + 1] else if j = i + 1 then s.[i] else ch)
    s

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let curr = Array.make (lb + 1) 0 in
  for i = 1 to la do
    curr.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      curr.(j) <- min (min (prev.(j) + 1) (curr.(j - 1) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit curr 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let damerau_levenshtein a b =
  (* optimal string alignment: substitution, insertion, deletion, and
     adjacent transposition, all unit cost.  The transposition step reads
     two rows back, so three rows of the matrix are all it keeps. *)
  let min (x : int) y = if x < y then x else y in
  let la = String.length a and lb = String.length b in
  let before = ref (Array.make (lb + 1) 0) in
  let prev = ref (Array.init (lb + 1) (fun j -> j)) in
  let curr = ref (Array.make (lb + 1) 0) in
  for i = 1 to la do
    let d2 = !before and d1 = !prev and d = !curr in
    d.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      let v = min (min (d1.(j) + 1) (d.(j - 1) + 1)) (d1.(j - 1) + cost) in
      d.(j) <-
        (if i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1] then
           min v (d2.(j - 2) + 1)
         else v)
    done;
    before := d1;
    prev := d;
    curr := d2
  done;
  !prev.(lb)

let lines s =
  match String.split_on_char '\n' s with
  | [] -> []
  | parts ->
    (* Drop the empty fragment produced by a trailing newline. *)
    let rec strip_last = function
      | [ "" ] -> []
      | [] -> []
      | x :: rest -> x :: strip_last rest
    in
    strip_last parts

let unlines = function
  | [] -> ""
  | ls -> String.concat "\n" ls ^ "\n"

let pad_right n s =
  if String.length s >= n then s else s ^ String.make (n - String.length s) ' '

let contains_substring ~needle hay =
  let ln = String.length needle and lh = String.length hay in
  if ln = 0 then true
  else begin
    let found = ref false in
    let i = ref 0 in
    while (not !found) && !i <= lh - ln do
      if String.sub hay !i ln = needle then found := true else incr i
    done;
    !found
  end

let repeat n s =
  let b = Buffer.create (n * String.length s) in
  for _ = 1 to n do
    Buffer.add_string b s
  done;
  Buffer.contents b
