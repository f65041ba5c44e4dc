(** Small string utilities shared across ConfErr. *)

val is_prefix : prefix:string -> string -> bool
(** [is_prefix ~prefix s] is true iff [s] starts with [prefix]. *)

val drop_prefix : prefix:string -> string -> string option
(** [drop_prefix ~prefix s] returns the remainder of [s] after [prefix],
    or [None] if [prefix] does not start [s]. *)

val split_on_first : char -> string -> (string * string) option
(** [split_on_first c s] splits [s] at the first occurrence of [c],
    excluding the separator. *)

val trim : string -> string
(** Like {!String.trim}; provided for qualified-use style. *)

val fields : string -> string list
(** [fields s] is the maximal runs of [s] free of spaces and tabs, in
    order: how httpd splits a directive's arguments and a zone file its
    record fields.  [fields ""] and [fields " \t"] are [[]]. *)

val equal_ci : string -> string -> bool
(** ASCII case-insensitive equality, without lowercased copies. *)

val insert_char : string -> int -> char -> string
(** [insert_char s i c] inserts [c] before position [i] (0..length). *)

val delete_char : string -> int -> string
(** [delete_char s i] removes the character at position [i]. *)

val replace_char : string -> int -> char -> string
(** [replace_char s i c] substitutes position [i] with [c]. *)

val swap_chars : string -> int -> string
(** [swap_chars s i] transposes positions [i] and [i+1]. *)

val levenshtein : string -> string -> int
(** Edit distance (insert/delete/substitute, unit costs). *)

val damerau_levenshtein : string -> string -> int
(** Optimal-string-alignment distance: like {!levenshtein} but an
    adjacent transposition also costs 1 — the right metric for
    typo-recovery, where ["prot"] is one slip away from ["port"]. *)

val lines : string -> string list
(** Split on ['\n']; a trailing newline does not produce an empty final
    line. *)

val unlines : string list -> string
(** Join with ['\n'] and append a final newline when the input is
    non-empty. *)

val pad_right : int -> string -> string
(** [pad_right n s] pads [s] with spaces to at least width [n]. *)

val contains_substring : needle:string -> string -> bool
(** Naive substring search; fine for config-sized inputs. *)

val repeat : int -> string -> string
(** [repeat n s] concatenates [n] copies of [s]. *)
