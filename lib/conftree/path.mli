(** Paths identify nodes inside a configuration tree.

    A path is the list of child indices walked from the root; [[]] is the
    root itself.  Paths are the currency between query evaluation
    ({!Confpath}) and tree edits ({!Node}). *)

type t = int list

val child : t -> int -> t
(** [child p i] extends [p] with child index [i]. *)

val parent : t -> (t * int) option
(** [parent p] splits off the last step: [Some (prefix, last_index)],
    or [None] for the root. *)

val is_prefix : prefix:t -> t -> bool
(** [is_prefix ~prefix p] holds when [prefix] is an ancestor-or-self
    of [p]. *)

val compare : t -> t -> int
(** Lexicographic; document order for siblings. *)

val equal : t -> t -> bool

val adjust_after_delete : deleted:t -> t -> t option
(** [adjust_after_delete ~deleted p] rewrites [p] so it designates the
    same node after the node at [deleted] was removed.  Returns [None]
    when [p] pointed inside the deleted subtree. *)

val adjust_after_insert : inserted:t -> t -> t
(** [adjust_after_insert ~inserted p] rewrites [p] so it designates the
    same node after a new node was inserted at position [inserted]. *)

val to_string : t -> string
(** Renders as ["/0/3/1"]; the root is ["/"]. *)
