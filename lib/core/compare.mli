(** The §5.5 comparison benchmark (Figure 3).

    The configuration process is simulated by injecting typos into the
    values of every directive of a configuration that sets most available
    directives to their defaults (booleans and defaultless directives
    excluded, as in the paper).  For each directive, [experiments]
    independent one-typo experiments are run; the fraction detected
    (startup or functional) buckets the directive into one of four
    detection ranges. *)

type bin = Poor | Fair | Good | Excellent

type directive_result = { directive : string; experiments : int; detected : int }

type t = { sut_name : string; per_directive : directive_result list }

val run :
  rng:Conferr_util.Rng.t -> ?experiments:int ->
  ?sampler:(Conferr_util.Rng.t -> string -> (string * string) option) ->
  sut:Suts.Sut.t -> config:(string * string) -> unit -> (t, string) result
(** [config] is [(file_name, text)] — the benchmark's starting
    configuration for that SUT.  [experiments] defaults to 20 (the
    paper's count).  [sampler] draws one typo of a value word; it
    defaults to {!Errgen.Typo.random_kind_first} and can be replaced for
    ablation studies (e.g. keyboard-oblivious substitutions). *)

val render_figure3 : t list -> string
(** Textual rendering of the stacked distribution, one column per SUT. *)
