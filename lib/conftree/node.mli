(** Abstract representation of configuration files.

    Following the paper (§3.2), configurations are modelled as trees of
    information items.  Each node carries a [kind] (its role in the
    representation: section, directive, word, record, ...), a [name], an
    optional [value], a property list of string attributes, and ordered
    children.  Trees are immutable; every edit returns a new tree.

    Two representations of the same file differ only in node kinds and
    shape (e.g. the typo plugin views a file as lines of words while the
    structural plugin views it as sections of directives); the same node
    type serves both. *)

type t = {
  kind : string;
  name : string;
  value : string option;
  attrs : (string * string) list;
  children : t list;
}

(** {1 Well-known kinds} *)

val kind_root : string
val kind_section : string
val kind_directive : string
val kind_comment : string
val kind_blank : string
val kind_line : string
val kind_word : string
val kind_record : string
val kind_element : string
val kind_text : string

(** {1 Construction} *)

val make :
  ?name:string -> ?value:string -> ?attrs:(string * string) list ->
  ?children:t list -> string -> t
(** [make kind] builds a node; [name] defaults to [""]. *)

val root : t list -> t
(** Root node wrapping top-level children. *)

val section : ?attrs:(string * string) list -> string -> t list -> t

val directive : ?attrs:(string * string) list -> ?value:string -> string -> t

val comment : string -> t

val blank : t

(** {1 Accessors} *)

val attr : t -> string -> string option

val set_attr : t -> string -> string -> t

val remove_attr : t -> string -> t

val value_or : default:string -> t -> string

val equal : t -> t -> bool
(** Structural equality including attribute lists (order-sensitive). *)

val equal_modulo_attrs : t -> t -> bool
(** Equality ignoring attributes (used to compare configurations whose
    provenance annotations differ). *)

(** {1 Navigation} *)

val get : t -> Path.t -> t option

val fold : (Path.t -> t -> 'a -> 'a) -> t -> 'a -> 'a
(** Pre-order fold over every node with its path. *)

val find_all : (t -> bool) -> t -> (Path.t * t) list
(** All nodes satisfying the predicate, in document order. *)

val find_first : (t -> bool) -> t -> (Path.t * t) option
(** The first node in document order satisfying the predicate, which is
    not applied to the nodes after it. *)

(** {1 Edits}

    All edits return [None] when the path does not designate a suitable
    node. *)

val update : t -> Path.t -> (t -> t) -> t option
(** Apply a function to the node at the path. *)

val replace : t -> Path.t -> t -> t option

val delete : t -> Path.t -> t option
(** Remove the node at the path.  Deleting the root is refused. *)

val insert_child : t -> parent:Path.t -> index:int -> t -> t option
(** Insert a new child under [parent] at [index] (clamped to the valid
    range). *)

val append_child : t -> parent:Path.t -> t -> t option

val duplicate : t -> Path.t -> t option
(** Insert a copy of the node immediately after itself. *)

val move : t -> src:Path.t -> dst_parent:Path.t -> index:int -> t option
(** Detach the subtree at [src] and re-insert it under [dst_parent].
    Refused when [dst_parent] lies inside the moved subtree. *)

val copy : t -> src:Path.t -> dst_parent:Path.t -> index:int -> t option
(** Like {!move} but keeps the original. *)

val map_nodes : (t -> t) -> t -> t
(** Bottom-up map over every node (children are mapped first). *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** Indented debug rendering. *)

val to_string : t -> string
