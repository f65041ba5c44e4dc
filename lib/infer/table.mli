(** Per-ConfPath evidence tables (doc/infer.md).

    Evidence rows are grouped by the (file, enclosing section, node
    name) they mutated — one table per configured item, holding every
    observed (edit, outcome) pair in journal order.  Tables are the
    input to typed candidate induction ({!Induce}); their order (first
    appearance in the journal) is what makes the whole pipeline's
    output deterministic. *)

type key = {
  file : string;
  section : string;     (** lowercased, [""] at top level *)
  name : string;        (** lowercased node name *)
}

type obs = { row : Evidence.row; edit : Edit.t }

type t = {
  key : key;
  display : string;     (** the name as first seen (original case) *)
  node_kind : string;   (** node kind as first seen *)
  obs : obs list;       (** journal order *)
}

val build : Evidence.row list -> t list
(** One table per distinct key, in first-appearance order.  Rows whose
    outcome is ["n/a"] or ["crashed"] carry no validator evidence and
    are skipped; unnamed nodes (blank/comment lines) are skipped. *)
