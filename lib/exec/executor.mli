(** The campaign executor: parallel, resumable scenario execution.

    This is the production path for running a faultload (see
    [doc/exec.md]), for the CLI and the [conferr serve] daemon alike:
    it maps the scenario list over [jobs] domains
    ({!Conferr_pool.map}), journals every finished injection
    to an append-only JSONL file ({!Journal}), skips already-journaled
    scenarios on restart, guards each scenario with a timeout, and
    streams {!Progress} events.

    Each scenario runs through {!Conferr.Engine.run_scenario} under the
    {!Conferr_harden.Sandbox} fuel budget, so a SUT that raises —
    including [Stack_overflow] and [Out_of_memory] — classifies as
    [Outcome.Crashed] instead of killing its worker (see
    [doc/harden.md]); crash outcomes can be re-voted by a quorum, gated
    by a circuit breaker, and dumped as minimal-repro bundles into a
    quarantine directory.

    Determinism: profile entries are always assembled in scenario-list
    order and a sandboxed run is a pure function of the scenario for
    any SUT that does not crash, so for a fixed faultload the resulting
    {!Conferr.Profile.t} is identical for any [jobs] — [jobs = 1] {e is}
    the engine's classic sequential loop. *)

type settings = {
  jobs : int;
      (** worker domains; 1 = sequential in the calling domain.  Values
          outside [\[1; 64\]] are clamped — see {!clamp_jobs} *)
  timeout_s : float option;
      (** per-scenario deadline; [None] disables the watchdog *)
  retries : int;
      (** extra attempts after a timeout before classifying the
          scenario as [Crashed (Timeout _)] *)
  campaign_seed : int;
      (** campaign-level seed; each scenario derives its own journaled
          seed from it, independent of execution order *)
  journal_path : string option;
      (** JSONL journal location; [None] keeps results in memory only *)
  segment_bytes : int option;
      (** write the journal as a v3 segmented store rotating segments
          at this byte bound (doc/exec.md); [None] keeps the
          single-file v2 layout unless [journal_path] already is a
          store *)
  journal_io : Conferr_harden.Diskchaos.io option;
      (** the storage layer under the journal writer; [None] is the
          real filesystem.  [conferr chaos --disk] passes a
          {!Conferr_harden.Diskchaos.wrap}ped one — a storage fault
          surfaces as {!Journal.Fault} and aborts the campaign (the
          journal stays repairable and resumable) *)
  resume : bool;
      (** load [journal_path] and skip scenarios already recorded;
          when false an existing journal is truncated *)
  quorum : int;
      (** total attempts for a nondeterminism-suspect (crashed) outcome;
          1 disables re-running.  Majority vote wins; disagreements are
          journaled as flaky with every attempt's outcome *)
  breaker : int option;
      (** consecutive-crash threshold per (SUT × fault class) bucket;
          once crossed, following bucket scenarios are classified as
          [Crashed (Breaker_open _)] without execution for an
          exponentially growing window.  [None] disables the breaker *)
  quarantine_dir : string option;
      (** where crash repro bundles and the flaky-id list are written;
          [None] disables both *)
  fuel : int option;
      (** cooperative step budget per execution
          ({!Conferr_harden.Sandbox.tick}); [None] = unlimited *)
  trace : Conferr_obsv.Trace.t option;
      (** span tracer: each scenario records its pipeline phases
          (generate/serialize/spawn/run/classify) for Chrome
          trace-event export; [None] (default) records nothing *)
  metrics : Conferr_obsv.Metrics.t option;
      (** metrics registry shared with {!Progress}, the breaker and the
          per-scenario outcome/latency families (doc/obsv.md); [None]
          (default) records nothing.  With either observer set, journal
          entries also carry per-phase wall times ([phase_ms]) *)
  cancel : bool Atomic.t option;
      (** once the flag is set, every scenario not yet started is
          skipped and the campaign closes with the ones that ran: a
          partial, checkpointed and resumable journal.  The daemon sets
          it for [/cancel] and for a drain (doc/serve.md); [None]
          (default) runs every scenario *)
}

val default_settings : settings
(** [{ jobs = 1; timeout_s = None; retries = 0; campaign_seed = 42;
      journal_path = None; segment_bytes = None; journal_io = None;
      resume = false; quorum = 1; breaker = None;
      quarantine_dir = None; fuel = None; trace = None;
      metrics = None; cancel = None }] — hardening, observability and
    cancellation off by default, so existing callers behave exactly as
    before (profiles and journals are byte-identical to an unobserved
    run). *)

val clamp_jobs : int -> (int * string option, string) result
(** Validate a requested worker count.  [jobs <= 0] is an [Error] (the
    CLI exits 2 on it); a value above 64 clamps to 64, whatever the
    scenario count, and returns a warning message.  64 keeps a campaign
    well below the runtime's limit on live domains (128 in OCaml 5.1).
    {!run_from} applies the same clamp internally. *)

val parse_jobs : string -> (int, string) result
(** The CLI-facing [--jobs] grammar: a decimal integer, or ["auto"]
    (case-insensitive) for {!Conferr_pool.recommended_jobs}.  Any other
    text is an [Error] — the CLI exits 2 on it (doc/exec.md).  Range
    validation of the parsed number stays in {!clamp_jobs}. *)

val scenario_seed : campaign_seed:int -> string -> int64
(** Deterministic per-scenario seed, a hash of the campaign seed and the
    scenario id — independent of scheduling, so parallel and sequential
    runs journal identical seeds. *)

(** {2 A campaign in three steps}

    {!run_from} is open, one batch, close.  The explorer
    ([Conferr_adapt.Explore]) runs batches of its own choosing between
    the same open and close. *)

type campaign
(** An open campaign: its resume table, journal writer and observers. *)

val with_campaign :
  ?settings:settings ->
  ?on_event:(Progress.event -> unit) ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  total:int ->
  (campaign -> Journal.entry list) ->
  Journal.entry list * Progress.snapshot
(** [with_campaign ~total f] opens a campaign of [total] scenarios (the
    progress denominator; 0 when unknown): it loads the resume table,
    opens the journal writer and sets up the observers, then runs [f]
    over it.  The writer is closed even if [f] raises.  When [f] returns
    the campaign's entries, the campaign is closed: the flaky list is
    written to [quarantine_dir], then the journal is checkpointed to
    those entries from the lines the writer already rendered (no
    rewrite at all when it appended exactly them, in order, to a fresh
    file), and they are returned with the progress snapshot.
    [jobs] is used as given; {!run_from} clamps it first. *)

val journaled : campaign -> string -> Journal.entry option
(** The resume table's entry for a scenario id: [None] unless [resume]
    is set and the journal already holds that scenario. *)

val run_batch :
  campaign -> (int * Errgen.Scenario.t) array -> (int * Journal.entry) array
(** Run one batch through the per-scenario path (breaker, quorum,
    watchdog, {!Conferr.Engine.run_scenario} under the fuel budget,
    repro bundles, observers, journal append, progress events) through
    {!Conferr_pool.map} at [jobs].  Each scenario comes with an index,
    used in its progress events and returned with its entry.  Results
    are in input order; once [cancel] is set only the scenarios that
    ran are returned. *)

val run_from :
  ?settings:settings ->
  ?on_event:(Progress.event -> unit) ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  scenarios:Errgen.Scenario.t list ->
  unit ->
  Conferr.Profile.t * Progress.snapshot
(** Execute the campaign against an already-parsed base configuration.
    [on_event] (default {!Progress.log_event}) is invoked under a lock,
    in completion order, from worker domains. *)
