type condition = { column : string; value : Value.t }

type statement =
  | Create_database of string
  | Drop_database of string
  | Create_table of { table : string; columns : (string * Value.coltype) list }
  | Drop_table of string
  | Insert of { table : string; values : Value.t list }
  | Select of { columns : string list option; table : string; where : condition option }
  | Delete of { table : string; where : condition option }
  | Use of string
