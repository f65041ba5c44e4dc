(** Statements understood by the miniature SQL engine. *)

type condition = { column : string; value : Value.t }
(** Equality against a literal; the only predicate the engine needs. *)

type statement =
  | Create_database of string
  | Drop_database of string
  | Create_table of { table : string; columns : (string * Value.coltype) list }
  | Drop_table of string
  | Insert of { table : string; values : Value.t list }
  | Select of { columns : string list option; table : string; where : condition option }
      (** [columns = None] means [*] *)
  | Delete of { table : string; where : condition option }
  | Use of string
