(** Deterministic, splittable pseudo-random number generator.

    ConfErr campaigns must be reproducible: the same seed always yields the
    same fault scenarios, so a resilience profile can be regenerated and a
    regression can be replayed.  This module implements SplitMix64, a small
    high-quality generator with an explicit state that can be forked into
    independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves
    independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s remaining stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. Raises [Invalid_argument] on
    an empty list. *)

val pick_opt : t -> 'a list -> 'a option

val shuffle : t -> 'a list -> 'a list
(** Uniform permutation (Fisher-Yates over an array copy). *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t n xs] draws [min n (length xs)] distinct elements, in
    shuffled order, without replacement. *)
