(** Candidate generation: the error plugins run in reverse
    (doc/repair.md).

    Each lint finding on the broken configuration is mapped back through
    the generator that plausibly produced it: unknown names become
    rename candidates (the finding's own did-you-mean suggestion first,
    then {!Errgen.Typo.corrections} over the rule vocabulary and the
    stock directive names), missing required directives are re-inserted
    with their stock nodes at their stock positions, out-of-range or
    mis-typed values are restored to stock / clamped into range / moved
    to the nearest allowed enum word, and duplicates are dropped.  A
    structural diff against the stock configuration supplies candidates
    for faults lint cannot localize (late failures, semantic zone
    errors), and a whole-file restoration is the ranked-last resort. *)

val default_nearest : Conferr_lint.Checker.nearest
(** {!Conferr.Suggest.nearest} — the oracle the CLI wires everywhere. *)

type candidate = {
  origin : string;
      (** generator tag: ["suggestion"], ["correction"], ["stock-value"],
          ["clamp"], ["enum-nearest"], ["restore-required"],
          ["drop-duplicate"], ["restore-node"], ["stock-diff"],
          ["cluster"], ["stock-file"] *)
  description : string;  (** one line, e.g. the finding that drove it *)
  edits : Redit.t list;
  cluster : string list;
      (** directive names of the {!Conferr_infer.Cooccur} cluster that
          grouped a multi-edit candidate; [[]] for single-fault
          candidates *)
}

val typed_findings :
  ?nearest:Conferr_lint.Checker.nearest ->
  rules:Conferr_lint.Rule.t list ->
  Conftree.Config_set.t ->
  (Conferr_lint.Rule.t * Conferr_lint.Finding.t) list
(** Every finding of {!Conferr_lint.Checker.run_by_rule} paired with the
    rule that produced it — the typed input candidate generation needs —
    from one walk of the set.  Deterministic (rule order, then finding
    order). *)

val restore_name :
  ?canon:(string -> string) ->
  stock:Conftree.Config_set.t ->
  broken:Conftree.Config_set.t ->
  file:string -> string -> Redit.t option
(** One edit moving directive [name] of [file] back to its stock state:
    value restored, deleted directive re-inserted at its stock position,
    spurious directive dropped.  [None] when the two sets already agree
    on it.  [canon] (default {!Conferr_lint.Rule.lower}) normalizes
    names before matching. *)

val candidates :
  ?nearest:Conferr_lint.Checker.nearest ->
  findings:(Conferr_lint.Rule.t * Conferr_lint.Finding.t) list ->
  stock:Conftree.Config_set.t ->
  broken:Conftree.Config_set.t ->
  unit ->
  candidate list
(** Every candidate generated from [findings] (the {!typed_findings} of
    [broken], which the caller already has) and from the diff against
    [stock], deduplicated by edit list, sorted by ascending
    {!Redit.total_cost} (generation order breaks ties — more specific
    generators first).  The caller appends cluster candidates
    ({!Cluster.candidates}) before validation. *)
