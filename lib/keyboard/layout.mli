(** Physical keyboard model.

    The typo plugin (paper §4.1) mimics real slips: to substitute or
    insert a character it locates the key and modifiers that produce the
    character being typed, finds physically adjacent keys, and emits the
    characters those keys produce {e with the same modifiers} — modelling
    an operator's finger landing one key off.

    A layout is a set of keys with planar coordinates (keyboard rows are
    staggered, so columns are fractional).  Each layout keeps a table of
    its characters' neighbours: a character's list is computed on its
    first lookup, by whichever domain asks first, and read from the
    table after that.  Nothing is computed when a layout is made. *)

type key = {
  row : int;                (** 0 = digit row, 3 = bottom letter row *)
  col : float;              (** centre of the key, in key-widths *)
  unshifted : char;
  shifted : char option;
}

type t

val make : name:string -> (int * float * string * string) list -> t
(** [make ~name rows] builds a layout from row specs
    [(row_index, start_column, unshifted_chars, shifted_chars)]; the two
    strings must have equal length, each position is one key. *)

val us_qwerty : t
(** Standard US ANSI layout. *)

val us_dvorak : t
(** Dvorak simplified layout — a radically different adjacency
    structure, useful for studying how much slips depend on the
    operator's keyboard. *)

val ch_qwertz : t
(** Swiss-German layout (z/y swapped, different shifted digits) —
    exercising layout portability. *)

type modifier = Plain | Shifted

val find : t -> char -> (key * modifier) option
(** The key and modifier combination that produces the character, if the
    layout can type it. *)

val neighbors : ?radius:float -> t -> char -> char list
(** [neighbors t c] lists the characters produced by pressing keys
    adjacent to [c]'s key while holding [c]'s modifiers.  Characters a
    neighbouring key cannot produce under those modifiers are omitted.
    Result is deduplicated, never contains [c], sorted for determinism.
    [radius] defaults to 1.35 key-widths; at the default the list comes
    from the layout's table. *)

val shift_variant : t -> char -> char option
(** The character the same key yields with Shift toggled; [None] when the
    key has no shifted binding or the layout cannot type [c]. *)

val can_type : t -> char -> bool

val all_chars : t -> char list
(** Every character the layout can produce, sorted, deduplicated. *)
