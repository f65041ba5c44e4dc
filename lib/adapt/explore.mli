(** Feedback-directed campaign search (see [doc/adapt.md]).

    Instead of executing a fixed faultload end to end, [Explore] pulls
    scenarios from a lazy stream ({!Errgen.Gen}), skips byte-identical
    mutants ({!Mutant_cache}), and schedules batches by {e novelty}:
    per-(fault class x target file) buckets carry an energy that is
    boosted when a bucket's scenarios keep producing previously unseen
    outcome signatures ({!Conferr_exec.Signature}) and decayed when a
    bucket saturates.  The loop stops on a scenario budget, a wall-clock
    budget, [plateau] consecutive batches without a new signature, or
    stream exhaustion, and reports the {e signature frontier}: the first
    scenario to discover each distinct failure mode and the batch in
    which it was found.

    Each batch runs on {!Conferr_exec.Executor} ([run_batch] inside one
    [with_campaign]) with the settings' [exec], handed over unchanged.

    Determinism: batch composition, energies, the frontier, and the
    profile derive only from the campaign seed and the (deterministic)
    per-scenario outcomes — never from scheduling — so for a fixed
    stream and settings the report is byte-identical for any [jobs].
    The only exception is the opt-in wall-clock budget, which stops at a
    time-dependent batch boundary. *)

type settings = {
  exec : Conferr_exec.Executor.settings;
      (** the executor settings every batch runs with: jobs, deadline,
          retries, seed, journal and resume, fuel, trace and metrics.
          [metrics] also receives the final search state
          ([conferr_explore_*] gauges, including per-bucket energies) *)
  batch : int;  (** scenarios scheduled per batch *)
  budget : int option;
      (** stop once this many SUT executions have run (checked at batch
          boundaries, so a run can overshoot by at most one batch);
          duplicates, inexpressible mutants and journal-resumed entries
          are free *)
  wallclock_s : float option;
      (** stop at the first batch boundary past this many seconds *)
  plateau : int;
      (** stop after this many consecutive batches with zero new
          signatures; [0] disables the plateau rule *)
  quarantine_path : string option;
      (** a hardened campaign's quarantine directory; scenario ids in
          its [flaky.txt] are deferred to the back of the schedule and
          only run once every regular bucket has drained *)
}

val default_settings : settings
(** [{ exec = Executor.default_settings; batch = 32; budget = None;
      wallclock_s = None; plateau = 4; quarantine_path = None }] *)

type stop_reason =
  | Budget_exhausted
  | Wallclock_exceeded
  | Plateaued of int  (** consecutive novelty-free batches *)
  | Stream_exhausted

type frontier_entry = {
  key : Conferr_exec.Signature.key;
  first_id : string;  (** the scenario that discovered this signature *)
  first_description : string;
  discovered_batch : int;  (** 1-based batch of discovery *)
  hits : int;  (** executed or resumed entries with this signature *)
}

type report = {
  sut_name : string;
  frontier : frontier_entry list;  (** discovery order *)
  batches : int;
  considered : int;  (** scenarios scheduled out of the stream *)
  executed : int;  (** actual SUT boot+test runs *)
  duplicates : int;  (** skipped via the mutant cache *)
  resumed : int;  (** outcomes reused from the journal *)
  not_applicable : int;  (** mutations the format could not express *)
  deferred : int;  (** quarantined (flaky) scenarios pushed to the back *)
  stop : stop_reason;
  profile : Conferr.Profile.t;
      (** executed + resumed entries in scheduling order (duplicates
          carry no entry of their own) *)
  duplicate_of : (string * string) list;
      (** dedup provenance: (skipped scenario, first discoverer) *)
  energies : ((string * string) * float) list;
      (** final (fault class, target file) bucket energies, sorted *)
}

val run_from :
  ?settings:settings ->
  ?on_event:(Conferr_exec.Progress.event -> unit) ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  stream:Errgen.Scenario.t Errgen.Gen.t ->
  unit ->
  report

val run :
  ?settings:settings ->
  ?on_event:(Conferr_exec.Progress.event -> unit) ->
  sut:Suts.Sut.t ->
  stream:(Conftree.Config_set.t -> Errgen.Scenario.t Errgen.Gen.t) ->
  unit ->
  (report, Conferr.Engine.config_error) result
(** Parse the SUT's default configuration, build the stream over it, and
    explore. *)

val render : report -> string
(** The frontier report: discovery table, dedup/skip counters, stop
    reason, final bucket energies.  Contains no timing, so it is
    byte-identical across [jobs] (the determinism test relies on
    this). *)
