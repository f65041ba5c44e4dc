(** Candidate validation: lint-clean AND SUT-accepted (doc/repair.md).

    A candidate repair is only as good as the configuration it produces.
    Validation runs in two stages.  {!stage} applies a candidate to its
    broken configuration and serializes the result to the native
    formats.  {!judge} re-parses those files (so the static checker
    judges the actual bytes, not the in-memory tree), lints them, and
    boots them through {!Conferr.Engine.boot_and_test} with the SUT's
    functional tests — the same two predicates [conferr lint] and a
    campaign enforce.  A judgement depends on the serialized files
    alone, so candidates that serialize to the same bytes share one
    ({!Pipeline.run} judges each distinct file list once), and
    {!verdict} joins a staged candidate with its judgement.  Everything
    here is a pure function of its inputs, so running either stage
    through {!Conferr_pool.map} is deterministic for any [--jobs]. *)

type verdict = {
  candidate : Generate.candidate;
  distance : int;  (** {!Redit.total_cost} from the broken configuration *)
  lint_clean : bool;
      (** no finding at or above [Warning] on the re-parsed repair *)
  sut_ok : bool;  (** the sandboxed boot + functional tests passed *)
  outcome : string;  (** {!Conferr.Outcome.label} of the sandbox run *)
  files : (string * string) list;
      (** the serialized repaired files; [[]] when apply, serialize or
          re-parse failed *)
  repaired : Conftree.Config_set.t option;
      (** the re-parsed repaired set, when it parsed *)
  error : string option;  (** apply/serialize/re-parse failure *)
}

val ok : verdict -> bool
(** [lint_clean && sut_ok] — the acceptance predicate. *)

type staged = {
  candidate : Generate.candidate;
  distance : int;  (** {!Redit.total_cost} from the broken configuration *)
  serialized : ((string * string) list, string) result;
      (** the repaired files, or why apply/serialize failed *)
}

val stage :
  sut:Suts.Sut.t -> broken:Conftree.Config_set.t -> Generate.candidate -> staged
(** Apply the candidate's edits to [broken] and serialize the result. *)

type judgement = {
  reparsed : Conftree.Config_set.t;  (** the files parsed back *)
  clean : bool;  (** no finding at or above [Warning] *)
  booted : Conferr.Outcome.t;  (** the sandboxed boot + functional tests *)
}

val judge :
  ?nearest:Conferr_lint.Checker.nearest ->
  sut:Suts.Sut.t ->
  rules:Conferr_lint.Rule.t list ->
  (string * string) list ->
  (judgement, string) result
(** Re-parse, lint and boot serialized files; [Error] when they do not
    parse back. *)

val verdict :
  judgement:((string * string) list -> (judgement, string) result) ->
  staged ->
  verdict
(** The staged candidate's verdict, given the judgement of its files
    (consulted only when apply and serialize succeeded). *)
