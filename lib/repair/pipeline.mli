(** The end-to-end repair pipeline (doc/repair.md):
    target → lint + boot → candidates → parallel validation → choice.

    A {e target} is one broken configuration: the files given to
    [conferr repair], or one journal entry's mutation re-applied to the
    stock configuration.  For each target the pipeline lints and boots
    the broken set, generates repair candidates ({!Generate},
    {!Cluster}) and serializes each one ({!Validate.stage}).  Each
    distinct serialized configuration among all targets' candidates is
    then judged once in the sandbox ({!Validate.judge}), and each target
    takes the valid candidate with the smallest edit distance
    (generation order breaks ties).  Both parallel phases go through
    {!Conferr_pool.map}, so the whole result — and any report rendered
    from it — is byte-identical for any [jobs] value. *)

type status = Repaired | Already_clean | Unrepaired | Skipped

val status_label : status -> string
(** ["repaired"], ["already-clean"], ["unrepairable"], ["skipped"]. *)

type target = {
  tg_id : string;    (** scenario id, or a label for file targets *)
  tg_class : string; (** fault class; ["file"] for file targets *)
  tg_config : (Conftree.Config_set.t, string) result;
      (** the broken configuration; [Error] (inexpressible mutation,
          unmatched journal entry) becomes [Skipped] *)
  tg_outcome : Conferr.Outcome.t option;
      (** the recorded outcome, when replaying a journal — reused
          instead of re-booting the broken set *)
}

val file_target : id:string -> Conftree.Config_set.t -> target

val journal_targets :
  ?ids:string list ->
  scenarios:Errgen.Scenario.t list ->
  stock:Conftree.Config_set.t ->
  Conferr_exec.Journal.entry list ->
  target list
(** One target per journal entry (restricted to [ids] when non-empty):
    the entry's scenario — matched by id against the regenerated
    faultload — re-applied to the stock configuration.  Entries with no
    regenerated scenario become [Error] targets. *)

type edit_view = {
  e_file : string;
  e_path : string;  (** {!Conftree.Path.to_string} of the edit's site *)
  e_op : string;    (** {!Redit.op_label} *)
  e_text : string;  (** {!Redit.describe} against the broken set *)
}
(** A chosen edit rendered for reports, so consumers need not hold on
    to the broken configuration. *)

type repair = {
  r_id : string;
  r_class : string;
  r_status : status;
  r_detail : string;   (** skip reason / chosen-candidate description *)
  r_edits : edit_view list;  (** the applied edit sequence, if repaired *)
  r_findings : int;    (** lint findings at/above Warning before repair *)
  r_outcome : string;  (** outcome label of the broken configuration *)
  r_candidates : int;  (** candidates validated for this target *)
  r_chosen : Validate.verdict option;  (** the applied repair, if any *)
  r_matches_stock : bool;
      (** the repaired set equals the stock one modulo attributes *)
}

type result = {
  sut_name : string;
  repairs : repair list;  (** target order *)
  validated : int;        (** candidate validations across all targets *)
  judged : int;
      (** distinct serialized configurations among those candidates;
          each was re-parsed, linted and booted once *)
}

val run :
  ?jobs:int ->
  ?nearest:Conferr_lint.Checker.nearest ->
  ?specs:Conferr_lint.Rule_file.spec list ->
  sut:Suts.Sut.t ->
  rules:Conferr_lint.Rule.t list ->
  stock:Conftree.Config_set.t ->
  target list ->
  result
(** [specs] are loaded mined rules ([--rules]) whose
    [F_implies_present] bodies seed extra {!Cluster} candidates.  At
    most 24 candidates are validated per target, cheapest first. *)

val counts : result -> int * int * int * int
(** [(repaired, already_clean, unrepaired, skipped)]. *)

val all_repaired : result -> bool
(** No [Unrepaired] target — the exit-0 condition (doc/exec.md). *)
