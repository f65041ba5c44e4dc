(** Diagnostics produced by the static configuration checker.

    A finding pins a violated rule to a node of a configuration tree,
    addressed both by its raw {!Conftree.Path.t} and by a ConfPath
    query that selects exactly that node — the same addressing language
    the mutation engine uses for targets (paper §3.3), so a diagnostic
    can be fed back into any tool that speaks ConfPath. *)

type severity = Info | Warning | Error

val severity_label : severity -> string
(** ["info"], ["warning"], ["error"]. *)

val severity_of_label : string -> severity option

val at_least : threshold:severity -> severity -> bool

type t = {
  rule_id : string;
  severity : severity;
  file : string;          (** file name within the configuration set *)
  path : Conftree.Path.t; (** location inside that file's tree *)
  address : string;       (** ConfPath query selecting exactly [path] *)
  message : string;
  suggestion : string option;
      (** nearest known name, for unknown-name findings *)
  related : (string * string) list;
      (** other sites ([file], ConfPath address) that participate in the
          violation — the second ConfPath of a relation finding, the
          shadowing occurrence of a cross-file duplicate *)
}

val address_of_path : Conftree.Node.t -> Conftree.Path.t -> string
(** A ConfPath query for the node at [path] under the given root: each
    step is the node's name with a 1-based positional predicate among
    same-named siblings (["zone[2]"]), or ["*\[k\]"] when the name is
    empty or not expressible as a ConfPath identifier.  The root path is
    rendered as ["/"].  The query compiles and selects exactly the
    addressed node (property-tested). *)

val make :
  ?suggestion:string -> ?related:(string * string) list -> rule_id:string ->
  severity:severity -> file:string -> root:Conftree.Node.t ->
  path:Conftree.Path.t -> string -> t
(** [make ~rule_id ~severity ~file ~root ~path message] computes the
    ConfPath address from [root]/[path].  [related] defaults to []. *)

val compare : file_order:string list -> t -> t -> int
(** Deterministic ordering: position of [file] in [file_order] (files
    not listed sort last, alphabetically), then document order of
    [path], then [rule_id], then [message]. *)

val max_severity : t list -> severity option

val to_text : t -> string
(** One line: [file:address: severity: \[rule\] message (did you mean
    'x'?)]. *)

val to_json : t -> Conferr_obsv.Json.t
