(** Rendering and export of a {!Pipeline.result} (doc/repair.md): the
    text report, the JSON document, Prometheus counters and the
    dashboard panel.  Everything here is a pure function of the result,
    hence byte-identical for any [--jobs]. *)

val render : Pipeline.result -> string
(** The text report: one block per target (status, distance, the chosen
    edit sequence with its ConfPath sites, cluster attribution) plus a
    trailing summary line. *)

val to_json : Pipeline.result -> Conferr_obsv.Json.t

val record_metrics : Conferr_obsv.Metrics.t -> Pipeline.result -> unit
(** [conferr_repair_targets_total{sut,status}],
    [conferr_repair_candidates_total{sut,result}] (validated candidates
    by chosen / rejected) and [conferr_repair_edits_total{sut,op}] over
    the applied repairs. *)

val panel : Pipeline.result -> Conferr_obsv.Report.panel
(** The dashboard's repairs panel: status tiles and one row per target
    (doc/obsv.md). *)
