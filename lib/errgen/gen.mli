(** Lazy, pull-based scenario streams.

    The paper's campaigns materialize their whole faultload up front
    (a [Scenario.t list]); that caps how many scenarios a campaign can
    even consider.  A ['a Gen.t] is the streaming alternative: scenarios
    are produced one pull at a time, so a faultload can be unbounded —
    the consumer (e.g. [Conferr_adapt.Explore]) decides when to stop.

    Streams are {e single-consumer}: pulling mutates the stream.  Determinism is
    preserved by construction — a stream built from a seed always yields
    the same elements in the same order, so campaigns over streams are
    as reproducible as campaigns over lists. *)

type 'a t

val next : 'a t -> 'a option
(** Pull the next element; [None] means exhausted (and stays [None]). *)

val of_generator :
  ?rounds:int ->
  prefix:string ->
  seed:int ->
  (rng:Conferr_util.Rng.t -> Conftree.Config_set.t -> Scenario.t list) ->
  Conftree.Config_set.t ->
  Scenario.t t
(** Lift one of today's list generators (the typo campaign, a structural
    generator, an RFC-1912 closure, ...) into a stream.  Round 0 runs
    the generator with [Rng.create seed] and keeps its scenario ids
    verbatim, so the first round of the stream {e is} the classic
    faultload for that seed.  Later rounds (unbounded unless [rounds]
    caps them) re-run the generator with a fresh deterministic RNG
    derived from [(seed, round)] and re-prefix ids as
    ["<prefix>-r<round>-NNNN"] to keep them campaign-unique.  Each
    round's list is only generated when the previous one is drained —
    nothing is materialized up front beyond one round. *)
