(** Span tracing for campaign runs (doc/obsv.md).

    Each executed scenario contributes one top-level span plus one
    child span per pipeline phase ({!Span.phase}), captured by a
    per-scenario {!Clock}.  Workers publish finished scenarios into
    per-domain ring buffers — appends after registration are
    lock-free, so tracing stays off the campaign's critical path; a
    full ring drops further scenarios (counted, never blocking).

    Export ({!chrome}) merges the rings and emits Chrome trace-event
    JSON loadable by Perfetto ([ui.perfetto.dev]) or
    [chrome://tracing].  The export is deterministic: scenarios are
    ordered by scenario id, span ids are FNV-1a hashes of stable
    names ({!Span.id}), and timeline coordinates are logical
    (scenario [k] occupies [[k*1000, (k+1)*1000)] µs, phase [j] within
    it [[k*1000 + j*10, …+10)]).  All wall-clock measurement is
    isolated in the single [args.wall] field
    (["<start_us>+<dur_us>@<domain>"]); exporting with
    [~mask_wall:true] blanks that field, making the output
    byte-identical across runs and [--jobs] settings. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds each per-domain ring (default 65536 scenarios). *)

val record : t -> id:string -> class_name:string -> Clock.t -> unit
(** Publish one finished scenario and its phase marks.  Called from
    worker domains; cheap (one hashtable lookup + array write). *)

val dropped : t -> int
(** Scenarios discarded because a ring was full. *)

val chrome : ?mask_wall:bool -> t -> string
(** The merged trace as Chrome trace-event JSON
    ([{"traceEvents": […], "displayTimeUnit": "ms"}]).
    [mask_wall] (default [false]) replaces every [args.wall] value
    with ["-"] — used by tests to assert byte-identity across
    [--jobs]. *)

val write_file : t -> string -> unit
(** [chrome] into a file (truncating), newline-terminated. *)
