(** A named set of configuration trees.

    The SUT's configuration may span several files (the paper's example:
    [httpd.conf] and [ssl.conf] for Apache); fault scenarios mutate the
    whole set so cross-file errors can be expressed. *)

type t

val empty : t

val of_list : (string * Node.t) list -> t
(** Later bindings for the same file name replace earlier ones. *)

val to_list : t -> (string * Node.t) list
(** In insertion order. *)

val find : t -> string -> Node.t option

val names : t -> string list

val add : t -> string -> Node.t -> t
(** Adds or replaces the tree bound to the file name. *)

val update : t -> string -> (Node.t -> Node.t option) -> t option
(** [update t file f] rewrites one tree; [f] returning [None] or a
    missing [file] yields [None]. *)

val map : (string -> Node.t -> Node.t) -> t -> t

val fold_nodes : (string -> Path.t -> Node.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every node of every file: file order of the set, then
    document (pre-)order within each tree.  The substrate the
    cross-file analyses ([lib/lint]'s reference graph) walk. *)

val cross_file_duplicates :
  kind:string -> canon:(string -> string) -> t ->
  (string * (string * Path.t) list) list
(** Canonical names of [kind] nodes that appear as direct children of
    the roots of two or more distinct files of the set, with every site
    in document order — the cross-file shadowing a per-file scan cannot
    see (last-one-wins shadowing across files applies at the top level
    only). *)

val equal : t -> t -> bool
