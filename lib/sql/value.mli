(** SQL values for the miniature engine. *)

type t = Int of int | Text of string | Null

type coltype = Tint | Ttext

val type_matches : coltype -> t -> bool
(** [Null] matches every column type. *)

val equal : t -> t -> bool
(** SQL semantics: [Null] equals nothing, not even [Null]. *)

val coltype_of_name : string -> coltype option
(** Case-insensitive; recognizes the usual aliases ([INT], [INTEGER],
    [TEXT], [VARCHAR], [CHAR]). *)
