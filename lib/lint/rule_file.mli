(** Serializable subset of the {!Rule} IR (doc/infer.md).

    The full IR embeds OCaml closures (custom value checks, whole-set
    analyses), so it cannot round-trip through a file.  This module
    defines the data-only subset that can: typed value checks, required
    directives, unknown-name detection with an explicit vocabulary,
    duplicate detection, and presence-co-occurrence implications.  It is
    the format [conferr infer --emit-rules] writes and
    [conferr lint --rules FILE] loads.

    The file is a single JSON object:
    {v
    { "conferr_rules": 1,
      "sut": "postgres",
      "rules": [ { "id": ..., "severity": ..., "doc": ...,
                   "claim": ..., "body": { "kind": ..., ... } }, ... ] }
    v} *)

(** Serializable value shape (no [Custom] — that is a closure). *)
type vspec =
  | F_int_range of int * int
  | F_bool
  | F_enum of { allowed : string list; ci : bool }

(** Serializable rule body.  [file]/[section] express the {!Rule.target}
    scope ([None] = anywhere; [Some ""] for [section] = top level). *)
type body =
  | F_value of {
      file : string option;
      section : string option;
      name : string;
      vspec : vspec;
    }
  | F_required of { file : string; section : string option; name : string }
  | F_unknown of {
      file : string option;
      section : string option;
      node_kind : string;  (** {!Conftree.Node.kind_directive}, ... *)
      vocabulary : string list;
      what : string;
    }
  | F_no_duplicates of {
      file : string option;
      section : string option;
      names : string list option;
    }
  | F_implies_present of {
      file : string option;
      section : string option;
      names : string list;
          (** directives observed to be configured (and to fail) together;
              flagged when some but not all are present *)
    }
  | F_relation of {
      file : string option;
      section : string option;
      op : Rule.rel_op;
      lhs : flinexp;
      rhs : flinexp;
      per_file : bool;
    }
      (** linear/ordering constraint between directives, compiled to
          {!Rule.body.Relation} with the generic unit parsers of
          {!Dataflow.read_of_unit} *)

(** Serializable relation term; [ft_unit] is one of
    {!Dataflow.unit_labels}. *)
and fterm = {
  ft_coeff : int;
  ft_name : string;
  ft_unit : string;
  ft_default : int;
}

and flinexp = { fl_const : int; fl_terms : fterm list }

type spec = {
  id : string;
  severity : Finding.severity;
  doc : string;
  claim : Rule.claim;
  body : body;
}

val to_rule : spec -> Rule.t
(** Compile to the checker IR.  Name matching is case-insensitive
    ({!Rule.lower}), matching how the inference pipeline canonicalizes
    mined names. *)

val json_of_body : body -> Conferr_obsv.Json.t
(** The body alone, as embedded in the file format — also used by
    [conferr infer --format json] to render candidate specs. *)

val save : ?sut:string -> spec list -> string
(** One JSON object followed by a newline. *)

val load : string -> (spec list, string) result
(** Parse the contents of a rule file. *)
