(** The injection engine: the end-to-end pipeline of Figure 1.

    For each fault scenario: apply the mutation to the abstract
    representation of the initial configuration, serialize the mutated
    trees back to the native formats, start the SUT on the faulty files,
    run the functional tests, and classify the outcome. *)

val parse_default_config : Suts.Sut.t -> (Conftree.Config_set.t, string) result
(** Parse every default configuration file of the SUT with its declared
    format. *)

val parse_config :
  Suts.Sut.t -> (string * string) list -> (Conftree.Config_set.t, string) result
(** Same, over explicit file contents (used by the comparison benchmark,
    which starts from a non-default configuration). *)

val serialize_config :
  Suts.Sut.t -> Conftree.Config_set.t -> ((string * string) list, string) result
(** Inverse of {!parse_config}; fails when a tree is not expressible in
    its file's format. *)

exception Out_of_fuel of int
(** A SUT's cooperative step budget ran out; the payload is the initial
    budget.  Raised by [Conferr_harden.Sandbox.tick], classified by
    {!boot_and_test} as [Crashed (Fuel_exhausted _)]. *)

val materialize :
  ?probe:Conferr_obsv.Span.probe ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  Errgen.Scenario.t ->
  ((string * string) list, string) result
(** The head of the pipeline: apply the mutation and serialize the faulty
    files.  [Error] carries the scenario's [Not_applicable] message — a
    mutation that cannot be applied or expressed, or one that raised.
    [probe] (default {!Conferr_obsv.Span.null}, a no-op) marks the
    [Generate] and [Serialize] phases (doc/obsv.md). *)

val boot_and_test :
  ?probe:Conferr_obsv.Span.probe -> Suts.Sut.t -> (string * string) list -> Outcome.t
(** The tail of the pipeline: boot the SUT on already-serialized
    configuration files, run its functional tests and classify.  A SUT
    that raises — [Stack_overflow], [Out_of_memory] and {!Out_of_fuel}
    included — is classified as [Crashed {cause; phase; backtrace}] with
    phase [Boot] or [Test], never an escaping exception.  [probe] marks
    the [Spawn] (boot), [Run] (tests + shutdown) and [Classify]
    phases. *)

val run_scenario :
  ?probe:Conferr_obsv.Span.probe ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  Errgen.Scenario.t ->
  Outcome.t
(** The whole pipeline for one scenario: {!materialize}, then
    {!boot_and_test}.  This is the only code that runs a scenario; every
    campaign loop (the one below, the executor, the explorer, the
    daemon) goes through it. *)

type config_error = { sut_name : string; message : string }
(** The SUT's own default configuration failed to parse — a harness or
    SUT-definition bug, reported structurally rather than as an
    exception so callers can surface it without crashing. *)

val config_error_to_string : config_error -> string

val run_from :
  sut:Suts.Sut.t -> base:Conftree.Config_set.t ->
  scenarios:Errgen.Scenario.t list -> unit -> Profile.t
(** Campaign over an already-parsed base configuration: the classic
    sequential loop, one {!run_scenario} per scenario in list order.
    The parallel, journaled campaign is [Conferr_exec.Executor.run_from];
    [test_oracle] checks the two agree on every outcome. *)
