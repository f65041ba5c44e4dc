type t = Int of int | Text of string | Null

type coltype = Tint | Ttext

let type_matches coltype v =
  match (coltype, v) with
  | _, Null -> true
  | Tint, Int _ -> true
  | Ttext, Text _ -> true
  | Tint, Text _ | Ttext, Int _ -> false

let equal a b =
  match (a, b) with
  | Null, _ | _, Null -> false
  | Int x, Int y -> x = y
  | Text x, Text y -> x = y
  | Int _, Text _ | Text _, Int _ -> false

let coltype_of_name s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" | "SMALLINT" -> Some Tint
  | "TEXT" | "VARCHAR" | "CHAR" | "STRING" -> Some Ttext
  | _ -> None
