(** Repair edits: typed, path-addressed inversions of configuration
    faults (doc/repair.md).

    Where a fault scenario mutates a {!Conftree.Config_set.t} through an
    opaque closure, a repair edit is {e data}: which file, which
    {!Conftree.Path.t}, and one of five operations.  Keeping edits
    first-class lets the pipeline rank candidates by edit distance,
    render them in the report, and prove (property-tested) that applying
    a repair touches nothing outside the edits' sites. *)

type op =
  | Rename of string  (** give the node at the path this name *)
  | Set_value of string option  (** give the node at the path this value *)
  | Delete  (** remove the node at the path *)
  | Insert of { index : int; node : Conftree.Node.t }
      (** insert [node] under the {e parent} designated by the path, at
          child position [index] (clamped) *)
  | Restore_file of Conftree.Node.t
      (** replace the whole file tree (path must be the root) — the
          last-resort repair, ranked after every targeted edit *)

type t = { file : string; path : Conftree.Path.t; op : op }

val op_label : t -> string
(** ["rename"], ["set-value"], ["delete"], ["insert"],
    ["restore-file"]. *)

val site : t -> Conftree.Path.t
(** The ConfPath the edit touches: the node's path, or for [Insert] the
    position the new node lands on. *)

val describe : broken:Conftree.Config_set.t -> t -> string
(** One human-readable line, e.g.
    ["rename 'max_connektions' -> 'max_connections'"].  [broken] is the
    pre-repair set the edit addresses. *)

val total_cost : broken:Conftree.Config_set.t -> t list -> int
(** The sum of each edit's character-level edit distance from the
    broken configuration: Damerau-Levenshtein over the renamed name /
    replaced value, the rendered size of deleted and inserted subtrees,
    and for [Restore_file] the combined size of both trees (so
    whole-file restoration always ranks behind targeted edits). *)

val apply :
  Conftree.Config_set.t -> t list -> (Conftree.Config_set.t, string) result
(** Apply every edit.  Edits are applied in descending document order of
    their sites (deletes before inserts at equal sites), so earlier
    sites are never invalidated by index shifts; the result is
    independent of the list order given. *)
