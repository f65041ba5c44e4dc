(** Content-addressed mutant dedup cache.

    Random error generators frequently synthesize the {e same} faulty
    configuration twice (ten random typos in a three-character value
    collide often), and running the SUT on byte-identical input can only
    rediscover the same outcome.  This cache hashes each scenario's
    faulty files (from [Conferr.Engine.materialize], the head of the
    pipeline every campaign runs) and answers "has this exact
    mutant been executed before?" — the campaign loop skips the SUT run
    for duplicates and records a [Duplicate_of] provenance pointing at
    the first discoverer instead. *)

type t

type verdict =
  | Fresh of string
      (** first time this exact mutant (this digest) is seen *)
  | Duplicate_of of { digest : string; first_id : string }
      (** byte-identical to the mutant first produced by scenario
          [first_id]; skip the SUT run *)
  | Inexpressible of string
      (** the mutation could not be applied or serialized — the
          [Not_applicable] message of [Conferr.Engine.run_scenario] *)

val create : unit -> t

val classify :
  t -> sut:Suts.Sut.t -> base:Conftree.Config_set.t -> Errgen.Scenario.t ->
  verdict
(** Apply and serialize the scenario's mutation, then look the result up
    by content digest.  A [Fresh] verdict registers the digest under the
    scenario's id. *)
