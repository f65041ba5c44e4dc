(** Abstract syntax of ConfPath queries.

    ConfPath is the XPath subset ConfErr uses to select mutation targets
    inside configuration trees (paper §3.3: "target nodes are easily
    specified via an XPath query"). *)

type axis =
  | Child        (** default axis: [name] *)
  | Descendant   (** [//name] *)
  | Parent       (** [..] *)
  | Self         (** [.] *)

type name_test = Name of string | Any

type value_expr =
  | Attr of string   (** [@key] *)
  | Kind             (** [kind()] *)
  | Node_name        (** [name()] *)
  | Node_value       (** [value()] *)
  | Literal of string

type cmp = Eq | Neq

type pred =
  | Compare of value_expr * cmp * value_expr
  | Exists of value_expr      (** attribute present / value present *)
  | Position of int           (** 1-based position, e.g. [\[2\]] *)
  | Last                      (** [\[last()\]] *)
  | Contains of value_expr * value_expr
  | Starts_with of value_expr * value_expr
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type step = { axis : axis; test : name_test; preds : pred list }

type t = { absolute : bool; steps : step list }

val to_string : t -> string
