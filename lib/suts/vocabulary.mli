(** Directive vocabularies of the simulated systems.

    The names each SUT's parser knows, used by {!Conferr.Suggest} to turn
    an "unknown directive" rejection into a "did you mean ...?"
    diagnosis — the kind of resilience improvement the paper's resilience
    profiles are meant to motivate. *)

val for_sut : Sut.t -> string list
(** The known directive/parameter names of the given SUT; empty for
    systems whose configuration is not name-oriented. *)

val mysql : string list
val postgres : string list
