(** Per-(SUT × fault class) circuit breaker with exponential backoff
    (doc/harden.md).

    After [threshold] consecutive harness-level crashes in one bucket
    the breaker opens: the next [backoff] scenarios of that bucket are
    classified as [Crashed (Breaker_open …)] without execution, then a
    single half-open probe runs; a probe that crashes again re-opens the
    breaker with a doubled window (capped), a success closes it and
    resets the backoff.  All operations are mutex-protected and safe to
    share across worker domains. *)

type t

val create :
  ?threshold:int ->
  ?base_backoff:int ->
  ?metrics:Conferr_obsv.Metrics.t ->
  unit ->
  t
(** Defaults: [threshold = 5] consecutive crashes, first skip window
    [base_backoff = 8] scenarios; windows are capped at 1024.
    With [?metrics] the breaker publishes its live per-bucket state as
    gauges ([conferr_breaker_consecutive] / [_backoff] / [_open],
    labeled [sut]/[class]); skip and trip {e counters} stay with the
    executor's progress events so a shared registry never
    double-counts (doc/obsv.md). *)

val admit : t -> sut_name:string -> class_name:string -> [ `Run | `Skip of string ]
(** Gate one scenario.  [`Skip bucket] means the breaker is open and the
    scenario must be classified without execution; the payload is the
    human-readable bucket name for [Outcome.Breaker_open]. *)

val note :
  t -> sut_name:string -> class_name:string -> crashed:bool ->
  [ `Counted | `Tripped of string ]
(** Record one executed scenario's fate.  Returns [`Tripped bucket] on
    the execution that opens (or re-opens) the breaker. *)
