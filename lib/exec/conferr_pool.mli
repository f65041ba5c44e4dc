(** Parallel map over OCaml 5 domains, and a watchdog.

    The campaign hot loop is a pure map: each fault scenario is applied,
    serialized, booted and tested independently of every other one, so a
    campaign shards trivially across domains.  This module provides that
    map while guaranteeing {e determinism}: results land in their input
    slot, so the output array is identical whatever the interleaving —
    [map ~jobs:4 f a] is byte-for-byte the same as [map ~jobs:1 f a].

    The module knows nothing of campaigns: the executor (and so every
    CLI and daemon campaign), the lint replay, infer's evidence pass,
    repair validation and [analyze] map over it. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], the hardware-sized default.
    This is what [--jobs auto] resolves to (doc/exec.md). *)

val map : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f a] computes [[| f 0 a.(0); ...; f (n-1) a.(n-1) |]].

    One loop serves every [jobs] (default 1): one atomic counter hands
    out ranges of at most 16 consecutive indices, the caller takes
    ranges itself, and [min jobs ⌈n/16⌉ - 1] spawned domains join it
    and are joined before [map] returns.  So [jobs <= 1], or a map of
    at most 16 elements, runs every call in the caller's domain in
    index order, and no domain outlives the call.  Each result is
    written to its own slot; no lock is taken.

    After each range its domain calls [Thread.yield], so threads that
    share a domain take turns once per range: the daemon's concurrent
    campaigns and its HTTP threads (doc/serve.md).  With no other thread
    waiting the yield returns at once.

    If [f] raises, the first exception (in completion order) stops new
    ranges from starting; ranges already taken run to their end or
    their own exception.  The exception is re-raised in the caller's
    domain, with its backtrace, once every spawned domain has been
    joined. *)

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
