(** Flaky-run detection by re-execution and majority vote
    (doc/harden.md).

    An outcome flagged as nondeterminism-suspect ({!suspect}: any
    harness-level crash that was actually executed) is re-run K times;
    the majority label wins, and a disagreeing scenario is marked flaky
    so it can be journaled with all attempt outcomes and quarantined. *)

type verdict = {
  outcome : Conferr.Outcome.t;  (** majority representative *)
  attempts : Conferr.Outcome.t list;  (** every attempt, in order *)
  flaky : bool;  (** attempts disagreed on the outcome label *)
}

val suspect : Conferr.Outcome.t -> bool
(** Should this first outcome trigger a quorum?  True exactly for
    [Crashed] outcomes other than breaker skips (which were never
    executed, so re-running them proves nothing). *)

val run : attempts:int -> (int -> Conferr.Outcome.t) -> verdict
(** [run ~attempts f] calls [f 0 .. f (attempts-1)] and votes.  Raises
    [Invalid_argument] when [attempts < 1]. *)
