(** Campaign metrics registry (doc/obsv.md).

    One registry per campaign collects counters, gauges and
    log-bucketed histograms, each optionally labeled (by convention:
    [sut], [class], [outcome], [phase]…).  The registry is
    mutex-protected and shared freely across worker domains; a metric
    springs into existence on first use, or can be {!declare}d up front
    to attach a help string.

    The snapshot is exported in the Prometheus text exposition format
    ({!expose}), deterministically ordered (sorted by metric name, then
    by label set) so two identical campaigns produce byte-identical
    snapshots whenever their measured values agree.  {!parse_exposition}
    reads the same format back; [parse_exposition (expose t)] yields
    exactly [samples t]. *)

type t

type kind = Counter | Gauge | Histogram

val create : unit -> t

val declare : ?help:string -> ?buckets:float list -> t -> kind -> string -> unit
(** Register a metric family up front.  [help] becomes the [# HELP]
    line; [buckets] (histograms only) are the upper bounds of the
    finite buckets, strictly increasing — default
    {!default_ms_buckets}.  Re-declaring an existing family with a
    different kind raises [Invalid_argument]; re-declaring with the
    same kind just updates the help string. *)

val default_ms_buckets : float list
(** The log-2 millisecond ladder used for duration histograms:
    [0.0625, 0.125, 0.25, …, 16384] (a [+Inf] bucket is implicit). *)

type counter
(** A counter cell, its family and label set resolved once: an update
    through it takes the registry lock and looks nothing up. *)

type histogram

val counter : ?labels:(string * string) list -> t -> string -> counter
(** Resolve a counter cell, declaring its family and creating it (at 0)
    if new: resolve a label set at its first update, or the exposition
    gains a zero-valued series. *)

val histogram : ?labels:(string * string) list -> t -> string -> histogram
(** Resolve a histogram cell likewise ({!default_ms_buckets} if new). *)

val add : counter -> float -> unit
(** Increment a counter cell by a non-negative amount. *)

val record : histogram -> float -> unit
(** Record one histogram observation. *)

val inc : ?by:float -> ?labels:(string * string) list -> t -> string -> unit
(** [add (counter ?labels t name) by], [by] defaulting to 1. *)

val set : ?labels:(string * string) list -> t -> string -> float -> unit
(** Set a gauge (auto-declared on first use). *)

type ('k, 'h) handles
(** Handles by key, each made at the key's first lookup and kept, so a
    campaign resolves each of its label sets once.  Lookups take no
    lock: domains that look a new key up at once may each make it, so
    making must be idempotent, as resolving a cell is. *)

val handles : ('k -> 'h) -> ('k, 'h) handles

val handle : ('k, 'h) handles -> 'k -> 'h
(** The key's handle (keys compare structurally). *)

val value : ?labels:(string * string) list -> t -> string -> float option
(** Current value of one counter/gauge cell; [None] if the cell does
    not exist (or names a histogram). *)

val family : t -> string -> ((string * string) list * float) list
(** Every (label set, value) cell of one counter/gauge family, sorted
    by label set — deterministic.  Empty for unknown families and for
    histograms. *)

type sample = {
  sample_name : string;
  labels : (string * string) list;  (** sorted by label name *)
  value : float;
}

val samples : t -> sample list
(** The flattened snapshot, in exposition order.  A histogram family
    expands Prometheus-style into cumulative [name_bucket{le="…"}]
    samples plus [name_sum] and [name_count]. *)

val expose : t -> string
(** Prometheus text exposition format, with [# HELP]/[# TYPE] headers. *)

val write_file : t -> string -> unit
(** [expose] into a file (truncating). *)

val parse_exposition : string -> (sample list, string) result
(** Parse the text exposition format back into samples (comment and
    blank lines are skipped).  Inverse of {!expose} up to histogram
    structure: the round-trip returns exactly {!samples}. *)
