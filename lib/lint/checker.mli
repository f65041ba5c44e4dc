(** Rule evaluation engine over configuration trees.

    Evaluates a {!Rule.t} list against a {!Conftree.Config_set.t} and
    returns deterministic, byte-stable diagnostics: findings are sorted
    by (file order in the set, document order, rule id, message) and
    rendered without any wall-clock or environment dependence, so two
    runs over the same input produce identical bytes. *)

type nearest = vocabulary:string list -> string -> (string * int) option
(** Nearest-name oracle for "did you mean" hints on unknown-name
    findings; wire {!Conferr.Suggest.nearest} here.  Injected rather
    than imported so [conferr_lint] stays below [lib/core] in the
    dependency order. *)

val run :
  ?nearest:nearest -> rules:Rule.t list -> Conftree.Config_set.t ->
  Finding.t list
(** Evaluate every rule; the result is sorted and duplicate-free.
    Suggestions are attached to {!Rule.Unknown} findings when the
    nearest vocabulary name is within edit distance 3.  One call walks
    the set once: the node walk and every {!Rule.view} the rules read
    are computed at most once per call, and by no later call. *)

val run_by_rule :
  ?nearest:nearest -> rules:Rule.t list -> Conftree.Config_set.t ->
  (Rule.t * Finding.t list) list
(** Each rule, in list order, with its own findings — exactly what
    [run ~rules:[rule]] returns for it — from one walk of the set, as
    in {!run}. *)

val exceeds : threshold:Finding.severity -> Finding.t list -> bool
(** At least one finding at or above the threshold. *)

val render_text : Finding.t list -> string
(** One line per finding plus a trailing count line; ["no findings\n"]
    when the list is empty. *)

val to_json : Finding.t list -> Conferr_obsv.Json.t
(** [{"findings":[...],"errors":E,"warnings":W,"info":I}]. *)

val analysis_panel : Finding.t list -> Conferr_obsv.Report.panel
(** The dashboard's corpus-analysis panel: severity tiles and one row
    per finding, as [conferr analyze --html] and [conferr gaps --deep
    --html] show them. *)
