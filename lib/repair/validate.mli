(** Candidate validation: lint-clean AND SUT-accepted (doc/repair.md).

    A candidate repair is only as good as the configuration it produces.
    Each candidate is applied, serialized to the native formats,
    re-parsed (so the static checker judges the actual bytes, not the
    in-memory tree), linted, and finally booted through
    {!Conferr.Engine.boot_and_test} with the SUT's functional tests —
    the same two predicates [conferr lint] and a campaign enforce.  Everything
    here is a pure function of its inputs, so validating candidates
    through {!Conferr_pool.map} is deterministic for any [--jobs]. *)

type verdict = {
  candidate : Generate.candidate;
  distance : int;  (** {!Redit.total_cost} from the broken configuration *)
  lint_clean : bool;
      (** no finding at or above [Warning] on the re-parsed repair *)
  sut_ok : bool;  (** the sandboxed boot + functional tests passed *)
  outcome : string;  (** {!Conferr.Outcome.label} of the sandbox run *)
  files : (string * string) list;
      (** the serialized repaired files; [[]] when apply/serialize
          failed *)
  repaired : Conftree.Config_set.t option;
      (** the re-parsed repaired set, when it parsed *)
  error : string option;  (** apply/serialize/re-parse failure *)
}

val ok : verdict -> bool
(** [lint_clean && sut_ok] — the acceptance predicate. *)

val check :
  ?nearest:Conferr_lint.Checker.nearest ->
  sut:Suts.Sut.t ->
  rules:Conferr_lint.Rule.t list ->
  broken:Conftree.Config_set.t ->
  Generate.candidate ->
  verdict
