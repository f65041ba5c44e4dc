(** Lazy, pull-based scenario streams.

    The paper's campaigns materialize their whole faultload up front
    (a [Scenario.t list]); that caps how many scenarios a campaign can
    even consider.  A ['a Gen.t] is the streaming alternative: scenarios
    are produced one pull at a time, so a faultload can be unbounded —
    the consumer (e.g. [Conferr_adapt.Explore]) decides when to stop.

    Streams are {e single-consumer}: pulling mutates the stream, and the
    combinators below take ownership of their arguments.  Determinism is
    preserved by construction — a stream built from a seed always yields
    the same elements in the same order, so campaigns over streams are
    as reproducible as campaigns over lists. *)

type 'a t

val make : (unit -> 'a option) -> 'a t
(** Wrap a pull function.  After the first [None] the stream is treated
    as exhausted: the function is not called again. *)

val next : 'a t -> 'a option
(** Pull the next element; [None] means exhausted (and stays [None]). *)

val of_list : 'a list -> 'a t

val of_seq : 'a Seq.t -> 'a t

val unfold : ('s -> ('a * 's) option) -> 's -> 'a t
(** Classic anamorphism: [unfold step init] yields elements while [step]
    returns [Some (x, next_state)]. *)

val seeded : seed:int -> (Conferr_util.Rng.t -> 'a option) -> 'a t
(** Unbounded seeded stream: one private RNG is created from [seed] and
    threaded through every pull.  The draw function returning [None]
    ends the stream. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val filter : ('a -> bool) -> 'a t -> 'a t

val append : 'a t -> 'a t -> 'a t
(** Everything of the first stream, then everything of the second. *)

val interleave : 'a t list -> 'a t
(** Round-robin over the streams, dropping each as it exhausts — merges
    several error models into one fair stream. *)

val take : int -> 'a t -> 'a list
(** Pull at most [n] elements (fewer when the stream ends early). *)

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
