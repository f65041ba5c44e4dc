type key = { row : int; col : float; unshifted : char; shifted : char option }

(* [near.(code c)]: [c]'s neighbours at the default radius, once looked
   up.  Racing domains store the same list, so a race costs a scan. *)
type t = { name : string; keys : key list; near : char list option Atomic.t array }

type modifier = Plain | Shifted

let make ~name rows =
  let keys_of_row (row, start, unshifted, shifted) =
    if String.length unshifted <> String.length shifted then
      invalid_arg "Layout.make: row strings must have equal length";
    List.init (String.length unshifted) (fun i ->
        {
          row;
          col = start +. float_of_int i;
          unshifted = unshifted.[i];
          shifted = Some shifted.[i];
        })
  in
  { name; keys = List.concat_map keys_of_row rows; near = Array.init 256 (fun _ -> Atomic.make None) }

(* ANSI staggering: each letter row shifts right relative to the digit
   row. *)
let us_qwerty =
  make ~name:"us-qwerty"
    [
      (0, 0.0, "`1234567890-=", "~!@#$%^&*()_+");
      (1, 1.5, "qwertyuiop[]\\", "QWERTYUIOP{}|");
      (2, 1.75, "asdfghjkl;'", "ASDFGHJKL:\"");
      (3, 2.25, "zxcvbnm,./", "ZXCVBNM<>?");
    ]

let us_dvorak =
  make ~name:"us-dvorak"
    [
      (0, 0.0, "`1234567890[]", "~!@#$%^&*(){}");
      (1, 1.5, "',.pyfgcrl/=\\", "\"<>PYFGCRL?+|");
      (2, 1.75, "aoeuidhtns-", "AOEUIDHTNS_");
      (3, 2.25, ";qjkxbmwvz", ":QJKXBMWVZ");
    ]

let ch_qwertz =
  make ~name:"ch-qwertz"
    [
      (0, 0.0, "\1671234567890'^", "\176+\"*\231%&/()=?`");
      (1, 1.5, "qwertzuiop\232\168", "QWERTZUIOP\252!");
      (2, 2.0, "asdfghjkl\233\224", "ASDFGHJKL\246\228");
      (3, 2.5, "yxcvbnm,.-", "YXCVBNM;:_");
    ]

let find t c =
  let rec search = function
    | [] -> None
    | k :: rest ->
      if k.unshifted = c then Some (k, Plain)
      else if k.shifted = Some c then Some (k, Shifted)
      else search rest
  in
  search t.keys

let distance a b =
  let dr = float_of_int (a.row - b.row) and dc = a.col -. b.col in
  Float.sqrt ((dr *. dr) +. (dc *. dc))

let char_under_modifier k = function
  | Plain -> Some k.unshifted
  | Shifted -> k.shifted

let default_radius = 1.35

let scan_neighbors radius t c =
  match find t c with
  | None -> []
  | Some (key, modifier) ->
    t.keys
    |> List.filter (fun k -> (not (k == key)) && distance k key <= radius)
    |> List.filter_map (fun k -> char_under_modifier k modifier)
    |> List.filter (fun ch -> ch <> c)
    |> List.sort_uniq Char.compare

let neighbors ?(radius = default_radius) t c =
  let slot = t.near.(Char.code c) in
  match Atomic.get slot with
  | Some near when radius = default_radius -> near
  | _ ->
    let near = scan_neighbors radius t c in
    if radius = default_radius then Atomic.set slot (Some near);
    near

let shift_variant t c =
  match find t c with
  | None -> None
  | Some (key, Plain) -> key.shifted
  | Some (key, Shifted) -> Some key.unshifted

let can_type t c = find t c <> None

let all_chars t =
  List.concat_map
    (fun k -> k.unshifted :: (match k.shifted with None -> [] | Some s -> [ s ]))
    t.keys
  |> List.sort_uniq Char.compare
