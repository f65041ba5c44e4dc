(** In-memory execution of {!Ast.statement}s.

    One engine instance models one database server process.  State is
    mutable (tables live in hash tables) because the engine stands in for
    an external daemon whose state the harness starts and discards per
    injection. *)

type t

type result_set = { columns : string list; rows : Value.t list list }

type outcome =
  | Done                    (** statement executed, nothing to return *)
  | Rows of result_set
  | Sql_error of string

val create : unit -> t
(** A fresh server with no databases. *)

val run : t -> string -> outcome
(** Parse then execute one statement; parse errors become
    [Sql_error]. *)

val run_script : t -> string -> (int, string) result
(** Run [;]-separated statements, stopping at the first error; returns
    the number executed. *)

val database_names : t -> string list
