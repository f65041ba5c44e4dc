(** Deep (corpus-level) rule profiles for the six mini SUTs.

    The dataflow analysis of [lib/lint] is generic; this module supplies
    the per-SUT pieces: {!Conferr_lint.Rule.body.Relation} rules for the
    constraints the servers never check (Apache's keep-alive ordering,
    BIND's SOA timers), cross-file shadowing and reference-graph rules,
    silent-default taint specs for MySQL's lenient parsers, and the
    abstract-value specifications [conferr analyze] interprets stock
    sets against.  Constraints a server does check, such as pg's
    [max_fsm_pages >= 16 * max_fsm_relations], are base rules built
    from the simulator ({!Lint_rules.for_sut}).  Used by
    [conferr analyze], [conferr lint --deep] and [conferr gaps --deep]. *)

val deep_rules : string -> Conferr_lint.Rule.t list
(** Extra corpus-level rules for [sut_name]; [[]] for SUTs without a
    deep profile. *)

val deepen : string -> Conferr_lint.Rule.t list -> Conferr_lint.Rule.t list
(** [deepen sut base] is [base] followed by {!deep_rules}. *)

val dataflow_ids : string -> string list
(** Sorted distinct ids of the corpus-level rules of the deepened
    built-in set: its [Relation] rules and {!deep_rules} — the label
    space of the [conferr_dataflow_findings_total] metric. *)

val specs : string -> Conferr_lint.Dataflow.vspec list
(** Abstract-value specifications for the SUT's directives (empty for
    SUTs whose values the lattice does not model). *)

val canon : string -> string -> string
(** The SUT's directive-name canonicalizer ({!Mini_mysql.fold_dashes}
    for mysql, lowercasing otherwise). *)

val edges : string -> Conftree.Config_set.t -> Conferr_lint.Refgraph.edge list
(** Cross-file reference edges (BIND's zone declarations; empty
    otherwise). *)
