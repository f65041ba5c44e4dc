(** Minimal-repro bundles and the flaky quarantine list
    (doc/harden.md).

    Every crash the sandbox contains gets a directory under the
    campaign's quarantine dir holding the serialized faulty files, the
    crash classification (cause, phase, backtrace) and a one-line repro
    command; flaky scenario ids accumulate in [<dir>/flaky.txt], which
    [explore] reads to deprioritize them.  All writers are best-effort:
    an unwritable quarantine dir never fails the campaign. *)

val write :
  dir:string ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  ?seed:int ->
  Errgen.Scenario.t ->
  Conferr.Outcome.crash ->
  string option
(** Write [dir/<scenario-id>/{crash.txt,repro.sh,faulty-*}].  Returns
    the bundle path, or [None] if anything failed. *)

val load_flaky : string -> string list
(** Scenario ids quarantined so far (one per line, blanks skipped);
    empty when the list does not exist or cannot be read. *)

val record_flaky : dir:string -> string list -> unit
(** Append the ids not already present, mutex-guarded against
    concurrent campaigns in the same process. *)
