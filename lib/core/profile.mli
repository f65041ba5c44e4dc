(** The resilience profile — ConfErr's sole output (paper §3.1).

    One entry per synthesized injection, recording the injected error and
    the corresponding system behaviour; summaries aggregate the counts
    the paper's Table 1 reports. *)

type entry = {
  scenario_id : string;
  class_name : string;
  description : string;
  outcome : Outcome.t;
}

type t = { sut_name : string; entries : entry list }

type summary = {
  total : int;          (** injections that were applicable *)
  startup : int;        (** detected by the system at startup *)
  functional : int;     (** detected by the functional tests *)
  ignored : int;        (** not detected *)
  not_applicable : int; (** scenarios the format could not express *)
  crashed : int;        (** harness-level crashes (sandbox, timeout, breaker) *)
}

val make : sut_name:string -> entry list -> t

val summarize : t -> summary

val filter : (entry -> bool) -> t -> t

val detection_rate : summary -> float
(** Detected (startup + functional + crashed) over applicable total; 0
    when empty. *)

val render : t -> string
(** Aggregate table: one row per fault class plus a totals row.  A
    "crashed" column appears only when the profile contains at least one
    {!Outcome.Crashed} entry, so crash-free campaigns render exactly as
    they did before the hardening layer existed. *)

val render_entries : t -> string
(** Per-injection listing (the raw profile). *)

val render_by_cognitive_level : t -> string
(** Summaries grouped by GEMS cognitive level (paper §2): skill-based,
    rule-based, knowledge-based, plus an "unclassified" row when scenario
    classes fall outside the built-in taxonomy. *)

val to_csv : t -> string
(** Machine-readable export: one line per entry,
    [scenario_id,outcome,class,description] with RFC-4180 quoting. *)
