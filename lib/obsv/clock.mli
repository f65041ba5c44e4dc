(** Per-scenario phase clock.

    One clock follows one scenario through the pipeline: its {!probe}
    timestamps every phase the scenario passes through (a retried or
    quorum-re-voted scenario passes through the same phase several
    times; each pass is a separate mark).  The clock is the neutral
    middleman between the pipeline and the observability sinks: the
    tracer turns its marks into span events, the metrics registry into
    histogram observations, and the journal into the [phase_ms]
    field.

    Marks are mutex-protected: a watchdog thread abandoned by its
    timeout may still be inside a phase when the scenario is
    classified, and its late mark must not tear the list. *)

type t

type mark = {
  phase : Span.phase;
  seq : int;       (** 0-based recording order within this scenario *)
  start_s : float; (** wall clock, [Unix.gettimeofday] *)
  dur_s : float;
}

val create : unit -> t
(** Starts the scenario span now. *)

val probe : t -> Span.probe
(** A probe that appends one mark per wrapped phase.  Transparent:
    returns the wrapped function's value, re-raises its exceptions
    (recording the mark first). *)

val marks : t -> mark list
(** Every recorded mark, in recording order. *)

val started_s : t -> float
(** Wall-clock time of {!create}. *)

val phase_ms : t -> (string * float) list
(** Total milliseconds per phase, in canonical pipeline order, listing
    only phases that ran — the journal's [phase_ms] field.  Multiple
    passes through one phase (retries, quorum votes) are summed. *)
