(** Structural diff between a base configuration set and one mutant
    (doc/infer.md).

    A scenario's [apply] records {e how} it edits the tree only in its
    free-text description; re-deriving the edit from the trees gives
    the inference pipeline typed provenance — which file, which
    enclosing section, which named node, and whether the mutation
    deleted it, renamed it, or changed its value.  Mutants in a
    campaign are single-node edits, so the diff is a parallel walk that
    aligns children by structural equality and classifies the first
    disagreement at each level. *)

type kind =
  | Deleted
  | Inserted
  | Renamed of { from_ : string; to_ : string }
  | Value_changed of { from_ : string; to_ : string }
  | Changed
      (** any other single-node difference (kind change, simultaneous
          name+value change, unaligned sibling lists) *)

type t = {
  file : string;
  section : string;
      (** innermost enclosing section name, lowercased; [""] at top
          level — the same scope key the checker uses *)
  node_kind : string;  (** {!Conftree.Node.t.kind} of the base-side node *)
  name : string;       (** base-side node name (mutant-side for [Inserted]) *)
  kind : kind;
}

val diff :
  base:Conftree.Config_set.t -> mutated:Conftree.Config_set.t -> t list
(** Edits in document order, files in set order.  A file present in
    only one of the sets contributes a single [Deleted]/[Inserted] edit
    for its root. *)
