(** Multi-tenant domain-pool scheduler (doc/serve.md).

    A long-lived process — the [conferr serve] daemon — owns {e one}
    pool of worker domains and multiplexes work from several concurrent
    campaigns over it, instead of every campaign spawning (and tearing
    down) a private pool.  A one-shot campaign does not use it: it maps
    over {!Conferr_pool.map}.

    The model: a scheduler owns [jobs] worker domains; clients register
    {e tenants} (one per campaign) and submit thunks to them.  Workers
    pick runnable tenants {b round-robin} — after serving tenant [T] the
    scan resumes {e after} [T] — so one full rotation of the tenant ring
    (an {e epoch}) serves every tenant that has queued work and spare
    concurrency.  No tenant can starve another, whatever their queue
    lengths.  One knob bounds a tenant's appetite: [max_active] caps how
    many of its tasks run concurrently (the per-campaign job cap).  A
    tenant's queue is unbounded; the daemon's HTTP 429 comes from
    [--max-campaigns].

    Tasks are [unit -> unit] thunks and must do their own result
    plumbing; an escaping exception is caught, recorded as the tenant's
    first failure, and re-raised by {!wait}.  The scheduler is safe to
    drive from any mix of domains and systhreads. *)

type t
(** A pool of worker domains plus the tenant ring. *)

type tenant

val create : ?jobs:int -> unit -> t
(** Spawn the pool.  [jobs] (default 1) worker domains are started
    eagerly and live until {!drain}; values below 1 are clamped
    to 1. *)

val tenant : ?max_active:int -> ?name:string -> t -> tenant
(** Register a tenant.  [max_active] caps concurrently running tasks
    (default: the pool size); [name] is for diagnostics. *)

val tenants : t -> string list
(** Names of the tenants in the ring — registered and not yet
    {!retire}d — in the order the next scan visits them. *)

val submit : tenant -> (unit -> unit) -> [ `Queued | `Rejected ]
(** Enqueue one task.  [`Rejected] when the tenant was cancelled or
    retired, or the scheduler is draining or stopped — the caller
    decides whether that is a clean stop or a fatal race. *)

val cancel : tenant -> int
(** Drop every queued task of this tenant (running ones finish) and
    refuse further submissions.  Returns the number of tasks dropped. *)

val retire : tenant -> unit
(** Take the tenant out of the ring for good: drop its queued tasks,
    wait for its running ones to finish, and reject every later
    submission.  A long-lived scheduler retires each tenant when its
    work is over, so the ring (which every pick scans) holds only live
    tenants.  Idempotent. *)

val wait : tenant -> unit
(** Block until the tenant has no queued and no running tasks.  If any
    of its tasks raised, the first such exception is re-raised here
    (once — subsequent waits return normally).  The wake protocol: a
    finished task wakes {!wait}, {!retire} and {!drain} only when its
    tenant is left with nothing queued or running, so a waiter wakes
    once per idle tenant, not once per task. *)

val drain : t -> unit
(** Graceful stop: refuse new submissions, drop every {e queued} task of
    every tenant, wait for all {e running} tasks to finish, then stop
    and join the worker domains.  Tenant {!wait}ers are woken as their
    tenants empty.  Idempotent. *)
