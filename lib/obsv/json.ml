type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let hex_digits = "0123456789abcdef"

(* Runs of bytes that need no escape are copied whole, so a plain
   string costs one [Buffer.add_substring]. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' || c > '~' then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | c ->
         Buffer.add_string buf "\\u00";
         Buffer.add_char buf hex_digits.[Char.code c lsr 4];
         Buffer.add_char buf hex_digits.[Char.code c land 0xF]);
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start);
  Buffer.add_char buf '"'

(* The C formatter behind [Printf]'s "%g", without its interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral values below 1e15 print as integers ("%.0f", which keeps
   the sign of -0); everything else round-trips through "%.17g". *)
let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else format_float "%.17g" f

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> escape_string buf s
  | Arr xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        encode buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        encode buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  encode buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_failure of string

type cursor = { text : string; mutable pos : int }

let fail c msg = raise (Parse_failure (Printf.sprintf "%s at byte %d" msg c.pos))

let peek c = if c.pos < String.length c.text then Some c.text.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  if
    c.pos + String.length word <= String.length c.text
    && String.sub c.text c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_hex4 c =
  if c.pos + 4 > String.length c.text then fail c "truncated \\u escape";
  let s = String.sub c.text c.pos 4 in
  match int_of_string_opt ("0x" ^ s) with
  | None -> fail c "bad \\u escape"
  | Some n ->
    c.pos <- c.pos + 4;
    n

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some '"' -> advance c; Buffer.add_char buf '"'; loop ()
       | Some '\\' -> advance c; Buffer.add_char buf '\\'; loop ()
       | Some '/' -> advance c; Buffer.add_char buf '/'; loop ()
       | Some 'n' -> advance c; Buffer.add_char buf '\n'; loop ()
       | Some 'r' -> advance c; Buffer.add_char buf '\r'; loop ()
       | Some 't' -> advance c; Buffer.add_char buf '\t'; loop ()
       | Some 'b' -> advance c; Buffer.add_char buf '\b'; loop ()
       | Some 'f' -> advance c; Buffer.add_char buf '\012'; loop ()
       | Some 'u' ->
         advance c;
         let n = parse_hex4 c in
         (* \u0000-\u00ff is the raw byte the encoder escaped; decode
            anything wider as UTF-8 so foreign journals still load *)
         if n < 0x100 then Buffer.add_char buf (Char.chr n)
         else if n < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (n lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (n lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((n lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (n land 0x3F)))
         end;
         loop ()
       | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> is_num_char ch | None -> false) do
    advance c
  done;
  match float_of_string_opt (String.sub c.text start (c.pos - start)) with
  | Some f -> f
  | None -> fail c "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail c "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail c "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c (Printf.sprintf "unexpected %C" ch)

let of_string text =
  let c = { text; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos = String.length text then Ok v else Error "trailing garbage"
  | exception Parse_failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let str = function Str s -> Some s | _ -> None

let num = function Num f -> Some f | _ -> None

let str_list = function
  | Arr xs ->
    List.fold_right
      (fun x acc ->
        match (x, acc) with Str s, Some rest -> Some (s :: rest) | _ -> None)
      xs (Some [])
  | _ -> None
