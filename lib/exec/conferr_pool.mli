(** Fixed-size parallel worker pool over OCaml 5 domains.

    The campaign hot loop is a pure map: each fault scenario is applied,
    serialized, booted and tested independently of every other one, so a
    campaign shards trivially across domains.  This module provides that
    map while guaranteeing {e determinism}: results land in their input
    slot, so the output array is identical whatever the interleaving —
    [map ~jobs:4 f a] is byte-for-byte the same as [map ~jobs:1 f a].

    The pool is a thin wrapper over {!Scheduler}, the multi-tenant
    layer that lets one domain pool serve several concurrent campaigns
    (doc/serve.md); [map] is the one-tenant special case.  The module
    knows nothing of campaigns: the executor, the lint replay, infer's
    evidence pass and repair validation map over it. *)

module Scheduler = Scheduler
(** The extracted multi-tenant scheduler; see [scheduler.mli]. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the hardware-sized default.
    This is what [--jobs auto] resolves to (doc/exec.md). *)

val map : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] computes [[| f 0 a.(0); ...; f (n-1) a.(n-1) |]].

    With [jobs <= 1] (the default) every call runs in the current domain
    in index order — the degenerate case is exactly the classic
    sequential loop.  With [jobs > 1], a private {!Scheduler} with
    [min jobs (length a)] worker domains drains a single tenant holding
    every index; element results are written to distinct slots, so no
    synchronization beyond the scheduler's queue is needed.

    If [f] raises, the first exception (in completion order) wins,
    remaining elements are skipped, and it is re-raised in the caller's
    domain after all workers have stopped. *)

val with_timeout : timeout_s:float -> (unit -> 'a) -> 'a option
(** [with_timeout ~timeout_s f] runs [f ()] in a watchdog thread and
    waits at most [timeout_s] seconds for it to finish: [Some r] on
    completion, [None] on timeout.  An exception in [f] is re-raised in
    the caller.

    A worker that finishes in time is {b joined}, so the success path
    leaks nothing.  On timeout the runaway thread is {e abandoned}, not
    killed (OCaml threads are not cancellable); it is counted in
    {!abandoned_workers} until it eventually returns, and the caller's
    poll loop backs off exponentially (0.5 ms doubling to 20 ms) instead
    of spinning at a fixed 2 ms period.  This bounds the damage of a
    pathological mutation to one accounted-for thread rather than a hung
    campaign. *)

val abandoned_workers : unit -> int
(** Number of {!with_timeout} workers that overran their deadline and
    have not yet returned.  A campaign that times scenarios out leaves
    this at 0 once the abandoned scenarios finally finish — the
    regression test for the historical thread leak. *)
