(** Self-contained HTML resilience dashboard (doc/obsv.md).

    Renders one static [report.html] — no external scripts, fonts or
    network fetches — from journal-shaped rows plus an optional metrics
    snapshot ({!Metrics.expose} text).  Sections: headline stat tiles,
    the per-class resilience profile as a table with stacked outcome
    bars, per-phase and end-to-end latency histograms (log-2 buckets),
    the explore signature-frontier timeline, a hardening panel (crash
    clusters, flaky retries, breaker and chaos counters pulled from the
    metrics text), then any analysis {!panel}s.

    The row type deliberately repeats the journal fields as plain
    strings/floats so this module sits at the bottom of the dependency
    stack; [Conferr_exec.Dashboard] maps [Journal.entry] values into
    it. *)

type row = {
  id : string;                      (** scenario id *)
  class_name : string;              (** fault class, e.g. ["typo/value"] *)
  outcome : string;                 (** outcome label: startup/functional/ignored/n/a/crashed *)
  detail : string;                  (** outcome message/summary *)
  signature : string;               (** normalized outcome signature (clustering key) *)
  elapsed_ms : float;
  attempts : int;
  flaky : bool;                     (** succeeded only on a retry *)
  phase_ms : (string * float) list; (** per-phase wall time, journal v2.1 *)
}

type tone = Good | Series | Serious | Critical | Muted
(** A badge's color, from the outcome palette: [Good] is a clean
    startup detection, [Series] a functional one, [Serious] an ignored
    error, [Critical] a crash, [Muted] not applicable. *)

type cell =
  | Text of string
  | Mono of string  (** monospace: ids, sites, messages *)
  | Num of string  (** a formatted number, right-aligned *)
  | Badge of tone * string  (** a swatch of the tone before the label *)

type panel = {
  heading : string;
  blurb : string;  (** one muted line under the heading *)
  tiles : (string * int * string) list;  (** label, count, sub-line *)
  columns : (string * bool) list;  (** header, numeric *)
  rows : cell list list;  (** the first 40 are shown *)
  empty : string;  (** shown instead of the table when [rows] is empty *)
  noun : string;
  command : string;
      (** the note under a capped table reads "N further [noun](s) not
          shown — use [command] for the full list." *)
}
(** One analysis section below the campaign sections: validator gaps
    ([Conferr_lint_replay]), inferred constraints ([Infer_report]),
    repairs ([Repair_report]), corpus analysis ([Checker]).  Each
    analysis builds its panel next to its own types, choosing each
    badge's tone from the verdict it shows. *)

val html :
  title:string -> rows:row list -> ?metrics_text:string ->
  ?panels:panel list -> unit -> string
(** The complete document.  [rows] in journal order (the frontier
    timeline reads order as campaign progress); [metrics_text] is a
    Prometheus exposition snapshot to mine for breaker/chaos panels and
    embed verbatim in a collapsible section; [panels] follow the
    campaign sections in list order. *)

val write_file :
  title:string -> rows:row list -> ?metrics_text:string ->
  ?panels:panel list -> string -> unit
