(** Persistent campaign journal: one JSON object per line (JSONL).

    Every finished injection is appended (and flushed) as one line, so a
    campaign killed mid-run loses at most the entry being written; on
    restart the executor loads the journal and skips every scenario that
    already has an entry.  Format version 2 wraps each
    entry with a CRC-32 so torn or rotted lines are detected, not
    silently mis-read (see [doc/exec.md]):

    {v
    {"v":2,"crc":"9f2a11c3","entry":{"id":"typo-0001","class":"typo/name",
     "seed":"8386958","outcome":"startup","detail":["unknown directive"],
     "ms":0.41,"attempts":1,"desc":"omission of ..."}}
    v}

    The CRC covers the bytes of the ["entry"] member as written, which
    are its canonical serialization: {!render} serializes the entry
    once, hashes those bytes and puts the fixed wrapper around them,
    and readers check the CRC over the same bytes in place.  A line in
    any other layout (another writer's whitespace or key order) is
    checked the canonical way instead: parsed, the member re-serialized
    and hashed.  Version-1 journals (the bare entry object, no
    wrapper) still load.  [seed] is the per-scenario RNG seed as a
    decimal [int64] string (JSON numbers cannot carry 64 bits
    losslessly).

    Format v2.1 (the observability layer, doc/obsv.md) added one
    optional field: ["phase":{"generate":0.02,…}] records per-phase
    wall milliseconds when the campaign ran with [--trace] or
    [--metrics].  The field is omitted when empty, so journals written
    with observability off are byte-identical to plain v2; v2 and v1
    files still load, and {!fsck} validates the field's shape when
    present.

    {b Format v3} is a {e layout} change, not a wire change: the
    journal becomes a directory — a {!Segstore} of length-bounded
    segment files plus a manifest with per-segment CRCs — and each
    worker domain appends to its own segment, eliminating the global
    append lock.  Lines inside the segments are exactly the v2 format
    above, so every reader ({!load}, [report], [gaps], [infer]) sees
    one logical journal and v1/v2 single files keep loading unchanged.
    Opt in with [?segment_bytes] ({[--segment-bytes]} at the CLI); a
    path that already is a store is recognized automatically. *)

exception Fault of string
(** A storage-level failure while writing the journal — [Sys_error] or
    an injected {!Conferr_harden.Diskchaos} fault, re-labelled so
    callers can distinguish "the journal's disk is failing" (fail the
    campaign, keep the service alive) from a scenario failure.  Raised
    by {!open_append}, {!append} and {!checkpoint}. *)

type entry = {
  scenario_id : string;
  class_name : string;
  description : string;
  seed : int64;          (** per-scenario seed derived from the campaign seed *)
  outcome : Conferr.Outcome.t;
  elapsed_ms : float;    (** wall-clock time of the injection *)
  attempts : int;        (** executions behind this entry: 1 + timeout
                             retries + quorum re-runs; 0 for a breaker skip *)
  votes : Conferr.Outcome.t list;
      (** every quorum attempt, in order, when they disagreed (the
          scenario is flaky); [[]] otherwise *)
  phase_ms : (string * float) list;
      (** per-phase wall milliseconds keyed by {!Conferr_obsv.Span}
          label, in pipeline order; [[]] when the campaign ran without
          observability (v2.1) *)
}

val entry_to_json : entry -> Conferr_obsv.Json.t
(** The bare entry object (no CRC wrapper). *)

val entry_of_json : Conferr_obsv.Json.t -> (entry, string) result
(** Decode a bare (v1-style) entry object; [attempts] defaults to 1 and
    [votes] to [[]] when absent. *)

val render : entry -> string
(** The entry's v2 line, newline included: one serialization of the
    entry, its CRC, the wrapper.  What {!append} writes and the
    closing {!checkpoint} reuses. *)

type line_verdict =
  | Blank          (** whitespace only: no entry *)
  | Torn           (** not even JSON — a truncated write *)
  | Corrupt        (** JSON, but fails its CRC or entry decoding *)
  | Valid of entry

val decode_line : string -> line_verdict
(** Classify one line (newline stripped) — what {!load}, {!fsck} and
    {!survey} all go through.  A line in {!render}'s exact layout has
    its CRC checked over the raw ["entry"] bytes and only those bytes
    parsed; any other line (v1, another writer's layout, or one that
    fails that check) gets the canonical check. *)

val load : string -> entry list
(** Load every verifiable entry, in file order — segment order for a
    v3 store.  A missing file is an empty journal; a torn final line
    (the crash case), a CRC-failing line, or any other unparseable
    line is skipped rather than fatal — run {!fsck} to count what was
    skipped. *)

val read_text : string -> string
(** The journal's raw bytes: the file itself, or for a v3 store the
    concatenation of its segments in logical order (what the daemon's
    journal route serves).  Missing path reads as [""]. *)

type writer
(** Append handle; internally serialized for a single file, while on a
    v3 store each domain appends to its own segment.  It keeps every
    line it rendered, with its entry, for the closing {!checkpoint}. *)

val open_append :
  ?fresh:bool ->
  ?segment_bytes:int ->
  ?io:Conferr_harden.Diskchaos.io ->
  string ->
  writer
(** Open (creating if needed) for appending.  [~fresh:true] truncates
    first — used when starting a new campaign over an old journal.
    [segment_bytes] opts into the v3 store layout (rotating segments
    at that bound); without it a path that already is a store keeps
    the store layout, and a plain existing directory raises {!Fault}
    rather than silently adopting it.  [io] (default
    {!Conferr_harden.Diskchaos.real}) is the storage-chaos seam. *)

val append : writer -> entry -> unit
(** Write one line and flush it to the OS.  Raises {!Fault} when the
    storage layer fails. *)

val close : writer -> unit
(** Best-effort: seals open segments (v3) but never raises — the
    writer is closed in cleanup paths, and unsynced damage is
    {!fsck}'s job to find. *)

val checkpoint :
  ?io:Conferr_harden.Diskchaos.io ->
  ?segment_bytes:int ->
  ?writer:writer ->
  string ->
  entry list ->
  unit
(** Atomically replace the journal with exactly [entries]
    (write-then-rename): compacts duplicate lines from resumed runs
    and guarantees readers never observe a torn file.  On a v3 store
    (or with [segment_bytes] set) the result is a single sealed
    segment plus a manifest cut over atomically.

    [writer] is the campaign's (closed) writer for [path].  Its lines
    are reused rather than rendered again; only entries it did not
    append are rendered.  When it opened [path] as a fresh single file
    and appended exactly [entries], in order (jobs 1 without resume),
    the file already holds those lines and is left as it is. *)

val validate_path : ?segment_bytes:int -> string -> (unit, string) result
(** Pre-flight check for CLI commands: would {!open_append} with these
    arguments plausibly succeed?  [Error] carries a usage-style
    message (unwritable parent, directory where a file is expected,
    single file where a store is requested, …) — exit-2 material,
    checked before any campaign work starts. *)

(** {1 Integrity checking} *)

type fsck_report = {
  valid : int;    (** lines that parse and pass CRC/decoding *)
  torn : int;     (** lines that are not even JSON — truncated writes *)
  corrupt : int;  (** JSON lines failing CRC or entry decoding *)
  valid_prefix_bytes : int;
      (** byte length of the leading run of valid (or blank) lines —
          what [survey ~repair:true] keeps (per segment on a v3 store) *)
}

val clean : fsck_report -> bool
(** No torn and no corrupt lines. *)

val fsck : string -> fsck_report
(** Classify every line.  Blank lines count as no entry but do extend
    the valid prefix; a missing file reports all-zero.  On a v3 store
    the counts aggregate across segments — use {!survey} for the
    per-segment detail. *)

(** {1 Store-aware survey — [conferr fsck]'s engine} *)

type segment_standing =
  | File    (** a single-file journal (v1/v2) *)
  | Sealed  (** listed sealed in the manifest, CRC-protected *)
  | Open    (** still listed open — an interrupted writer *)
  | Orphan  (** on disk but not in the manifest (interrupted checkpoint) *)

val standing_label : segment_standing -> string

type segment_fsck = {
  segment : string;            (** segment file name (or the file's basename) *)
  standing : segment_standing;
  crc_ok : bool;               (** manifest CRC and length match the bytes on
                                   disk; [true] when there is nothing to check *)
  counts : fsck_report;        (** pre-repair line counts *)
  dropped : int;               (** lines dropped by repair (0 without [~repair]) *)
}

type survey = {
  path : string;
  store : bool;                (** v3 store vs single file *)
  manifest_ok : bool;          (** manifest present and parseable; [true] for files *)
  segments : segment_fsck list;  (** logical order; one entry for a single file *)
  repaired : bool;             (** [~repair] ran and healed something *)
}

val survey : ?repair:bool -> string -> survey
(** The full fsck: per-segment line classification, manifest/CRC
    verification, orphan detection.  With [~repair:true], heal what is
    damaged: a single file is truncated to its valid prefix
    (atomically, write-then-rename); a v3 store has each damaged
    {e segment} truncated individually, orphan segments and temp
    leftovers deleted, and the manifest resealed from the healed files.
    [counts] keep the pre-repair numbers and [dropped]/[repaired] record
    what healing did. *)

val survey_clean : survey -> bool
(** Nothing torn, corrupt, CRC-mismatched or orphaned, and the
    manifest is readable — the {e pre}-repair verdict. *)

val survey_totals : survey -> fsck_report
(** Line counts summed across segments. *)

val survey_to_json : survey -> Conferr_obsv.Json.t
(** The [conferr fsck --format json] object: totals, [clean] (true
    when clean before repair {e or} repaired), [repaired], and a
    [segments] array with per-segment valid/torn/corrupt/repaired
    counts, standing and CRC verdict. *)
