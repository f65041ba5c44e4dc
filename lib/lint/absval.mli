(** Small abstract-value lattice for corpus-level config analysis.

    Each directive is mapped to an element describing the set of
    concrete values it may denote: integer intervals (after
    unit-suffix normalization — sizes to kB, durations to ms), enum
    member sets, three-valued booleans, coarse string shapes, plus
    [Bot]/[Top].  Soundness contract: the concretization of a
    directive's abstract value contains the concrete value the SUT
    runs with (tested by QCheck in [test_dataflow]). *)

(** Coarse shape of an uninterpreted string value. *)
type shape = Sh_any | Sh_word | Sh_path | Sh_empty

type t =
  | Bot  (** no value / contradiction *)
  | Ival of int * int  (** integers in an inclusive range *)
  | Eset of string list  (** lowercased, sorted, deduplicated members *)
  | Bval of bool option  (** [Some b] = known truth value; [None] = either *)
  | Sval of shape
  | Top  (** any value *)

val point : int -> t

val eset : string list -> t
(** Members are lowercased and deduplicated; empty list is [Bot]. *)

val bval : bool -> t
val sval : string -> t

val contains_string : t -> string -> bool
