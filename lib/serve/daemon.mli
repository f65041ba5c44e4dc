(** The [conferr serve] campaign service (doc/serve.md).

    Every submitted campaign runs {!Conferr_exec.Executor.run_from}, the
    CLI's path, from a thread of its own: on a helper domain if the
    daemon has one free, else on the main domain, where concurrent
    campaigns take turns once per range of {!Conferr_pool.map}.  Each
    campaign journals to its own file under the state directory with
    the same checkpoint discipline as the one-shot CLI — the journals
    are byte-identical modulo wall-clock fields (the determinism
    contract; [conferr journal-diff] checks it).

    {!handle} is the complete HTTP surface as a plain function over
    {!Http.request}, so tests drive the daemon without sockets;
    {!listen} is the accept loop that puts it on a port. *)

type t

type campaign

val create :
  ?jobs:int ->
  ?max_campaigns:int ->
  ?segment_bytes:int ->
  ?journal_io:(string -> Conferr_harden.Diskchaos.io option) ->
  state_dir:string ->
  unit ->
  t
(** A daemon that runs at most [jobs] domains (default 1, clamped as
    {!Conferr_exec.Executor.clamp_jobs} clamps it): the main one and
    [jobs - 1] helpers, counted under the daemon lock.  A campaign
    takes [min j free] helpers when it starts, where [j] is its
    submission's [jobs], and gives them back when it closes.  With
    [k > 0] helpers it runs on them alone, in a domain it spawns (its
    map spawns the other [k - 1]); with none it runs on the main
    domain.

    Creates [state_dir] if needed.  Campaign ids continue after the
    highest [cNNNN.jsonl] or [cNNNN.v3] journal already in [state_dir],
    so a daemon restarted there never truncates an old journal (it does
    not list or resume the old campaigns).  [max_campaigns] (default 4)
    bounds the campaigns that may be queued or running at once, counting
    an admitted submission still generating its faultload — the
    submission queue whose overflow {!handle} answers with 429.

    [segment_bytes] makes every campaign journal a v3 segmented store
    ([<id>.v3] directories instead of [<id>.jsonl] files, doc/exec.md).
    [journal_io] maps a campaign id to the storage layer under its
    journal writer — the storage-chaos seam ([conferr serve
    --inject-disk-fault] and the durability tests fault exactly one
    campaign's disk with it).  A journal storage fault fails only that
    campaign: status [failed], a terminal event carrying the error, a
    [conferr_journal_faults_total] tick and the
    [conferr_serve_disk_faults] gauge — the other campaigns, each on
    its own thread, are untouched. *)

(** {1 Campaign lifecycle} *)

type submit_error =
  | Bad_request of string  (** unknown SUT, invalid policy/seed field *)
  | Busy                   (** at [max_campaigns] — HTTP 429 *)
  | Unavailable            (** draining — HTTP 503 *)

val find : t -> string -> campaign option
(** The campaign with this id, from a table keyed by id. *)

val status_label : campaign -> string
(** [queued] / [running] / [done] / [interrupted] / [cancelled] /
    [failed]. *)

val finished : campaign -> bool
(** The campaign reached a terminal status and its journal is
    checkpointed. *)

val wait : t -> campaign -> unit
(** Block until the campaign is terminal; woken when a campaign closes,
    not per event.  Test/bench helper — the HTTP surface streams
    [/events] instead. *)

val summary_json : campaign -> Conferr_obsv.Json.t
(** The list/status object: id, sut, seed, status, total, finished,
    events, policy, journal path.  The fields that change are read in one
    critical section, so a terminal status counts the terminal event. *)

val events_after : t -> campaign -> int -> string list * bool
(** The event JSON lines from the given index on, and whether the
    stream is closed (terminal event written).  A campaign keeps its
    events as values; only the ones asked for are walked, and they are
    rendered here, outside the daemon lock.  Building block of the
    [/events] chunked stream, which sends the lines of each call as one
    chunk. *)

(** {1 HTTP surface} *)

val handle : t -> Http.handler
(** Routes: [GET /healthz], [GET /metrics], [GET /dashboard],
    [POST /campaigns], [GET /campaigns], [GET /campaigns/ID],
    [POST /campaigns/ID/cancel], [GET /campaigns/ID/events] (chunked
    JSON-lines stream), [GET /campaigns/ID/results],
    [GET /campaigns/ID/journal].  Unknown paths 404, known paths with
    the wrong method 405, full daemon 429 with [Retry-After]. *)

val drain : t -> unit
(** Graceful stop: refuse new submissions, set every open campaign's
    cancel flag, and join the campaign threads once in-flight scenarios
    have finished and each campaign has checkpointed its journal and
    gone terminal (partial campaigns become [interrupted]).  A hung
    scenario holds it as it holds a cancel.  Idempotent. *)

val listen :
  t -> port:int -> ?port_file:string -> ?banner:(int -> unit) -> unit -> unit
(** Bind [127.0.0.1:port] ([port = 0] picks an ephemeral port), write
    the bound port to [port_file] if given, call [banner] with it, and
    accept connections (one systhread each) until SIGTERM or SIGINT.
    Every accepted socket has [TCP_NODELAY] set, so a reply leaves as
    soon as it is written instead of waiting for the client's delayed
    ACK of the one before it; each reply, and each wake of an
    [/events] stream, is one write.  Only the open connections are
    kept, each with its thread: a connection that ends removes itself.
    On signal: stop accepting, {!drain}, end the input side of every
    connection still open (so a client idling on a keep-alive
    connection does not hold the stop), join their threads and
    return — the caller exits 0.
    SIGPIPE is ignored for the process (dead peers must not kill the
    daemon). *)
