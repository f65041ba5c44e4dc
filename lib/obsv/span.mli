(** Span vocabulary of the observability layer (doc/obsv.md).

    Every scenario's trip through the pipeline decomposes into five
    phases; a span covers one phase of one scenario (or the whole
    scenario, for the parent span).  Span identifiers are deterministic
    — a pure hash of the scenario id and phase — so two runs of the
    same campaign produce the same ids whatever the scheduling. *)

type phase =
  | Generate   (** apply the mutation to the abstract configuration *)
  | Serialize  (** render the mutated tree back into native files *)
  | Spawn      (** boot the SUT on the faulty files *)
  | Run        (** drive the functional tests *)
  | Classify   (** fold the results into an {!Conferr.Outcome.t} *)

val all : phase list
(** Pipeline order: generate, serialize, spawn, run, classify. *)

val label : phase -> string
(** ["generate"], ["serialize"], ["spawn"], ["run"], ["classify"]. *)

val id : string -> string
(** Deterministic span id: 16 hex digits of an FNV-1a hash of the
    argument.  The scenario span hashes the scenario id; a phase span
    hashes ["<scenario-id>/<phase>#<seq>"]. *)

type probe = { wrap : 'a. phase -> (unit -> 'a) -> 'a }
(** A phase hook threaded into the execution pipeline: [wrap phase f]
    runs [f] and may time it, emit a span, count it…  It must be
    transparent — return [f ()]'s value and let exceptions through
    (timing hooks record the span in a [finally]). *)

val null : probe
(** The inert probe: [wrap _ f = f ()].  Pipelines default to it, so
    observability off costs one closure call per phase. *)
