(** Cross-file reference graph over a configuration set.

    Nodes are the files of the set; edges are file-to-file references
    mined from the trees (zone declarations, include-style directives,
    {!Rule.body.Reference}-shaped pointers).  The analyses report
    dangling targets and reference cycles — the cross-file half of
    [conferr analyze]. *)

type edge = {
  e_file : string;  (** referencing file (a member of the set) *)
  e_path : Conftree.Path.t;  (** site of the reference inside it *)
  e_what : string;  (** "zone file", "include", ... *)
  e_target : string;  (** referenced file name *)
}

type t

val build : Conftree.Config_set.t -> edge list -> t

val dangling : t -> edge list
(** Edges whose target is not a file of the set, in edge order. *)

val cycles : t -> string list list
(** File-level reference cycles.  Each cycle appears once, rotated to
    start at its lexicographically smallest member; the list is sorted —
    deterministic for any edge order. *)

val summarize : t -> string
(** ["reference graph: F file(s), E edge(s), D dangling, C cycle(s)"]. *)
