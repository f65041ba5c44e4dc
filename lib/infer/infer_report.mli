(** Rendering and export of a {!Pipeline.result} (doc/infer.md): the
    text report, the JSON document, the loadable rule file
    ([--emit-rules]), Prometheus counters and the dashboard panel.
    Everything here is a pure function of the result, hence
    byte-identical for any [--jobs]. *)

val recovery : Pipeline.result -> int * int
(** (recovered, total) over hand-written rule ids. *)

val render : Pipeline.result -> string
(** The text report: evidence summary, kept candidates with support /
    confidence / verdict, and the rule diff. *)

val to_json : Pipeline.result -> Conferr_obsv.Json.t

val rule_specs : Pipeline.result -> Conferr_lint.Rule_file.spec list
(** The candidates expressible in the loadable subset, candidate
    order — what [--emit-rules] writes. *)

val record_metrics : Conferr_obsv.Metrics.t -> Pipeline.result -> unit
(** [conferr_infer_candidates_total{sut,kind,claim}] and
    [conferr_infer_rule_diff_total{sut,verdict}]. *)

val panel : hand:Conferr_lint.Rule.t list -> Pipeline.result -> Conferr_obsv.Report.panel
(** The dashboard's inferred-constraints panel: verdict tiles, the
    candidate rows (recovered / missed-by-hand), then the hand-written
    rules inference missed or contradicted. *)
