(** Segmented journal store — the v3 on-disk layout (doc/exec.md).

    A v3 journal is a {e directory}: length-bounded segment files
    ([seg-000001.jsonl], …) plus a compact manifest ([MANIFEST.json])
    updated atomically by write-to-temp + rename.  Each OCaml 5 domain
    appends to its own open segment, so concurrent writers never share
    a lock on the data path — the global append lock of the
    single-file journal is gone.  A segment that reaches the size
    bound is {e sealed}: its byte length, line count and CRC-32 are
    recorded in the manifest, turning later bit rot into a detectable
    manifest/disk mismatch.

    This module owns the {e layout} only — segments, manifest,
    rotation, atomic checkpoint — and treats lines as opaque strings.
    The entry codec, fsck policy and repair policy stay in {!Journal},
    which dispatches here when a journal path is a directory.

    Crash-consistency invariants (what fsck/repair lean on):
    - the manifest is replaced only by [rename], so readers see either
      the old or the new one, never a torn one;
    - a segment is listed in the manifest {e before} its file is
      created, so a crash between the two leaves a listed-but-missing
      segment, which reads as empty;
    - a segment file not listed in the manifest is an {e orphan} (the
      residue of an interrupted {!checkpoint}) and is ignored by
      {!read_lines} — its content is always covered by the listed
      segments on one side of the checkpoint's atomic cutover. *)

type sealed = { name : string; lines : int; bytes : int; crc : int }
(** A sealed segment's manifest record; [crc] is the CRC-32 of the
    whole file, [lines] its newline count. *)

type manifest = {
  segment_bytes : int;
  sealed : sealed list;       (** in append order *)
  open_segments : string list; (** segments still being written, in open order *)
}

val is_store : string -> bool
(** The path is a directory that looks like a v3 store: it has a
    manifest or at least one [seg-*.jsonl] file.  A plain directory is
    {e not} a store — callers must opt in before one is created. *)

val load_manifest : string -> manifest option
(** [None] when the manifest is missing or unparseable (fsck reports
    that; {!read_lines} falls back to scanning). *)

(** A segment file's standing relative to the manifest. *)
type standing = Sealed_as of sealed | Open | Orphan

val segments : string -> (string * standing) list
(** Every segment file on disk, in logical order: manifest sealed
    order, then open order, then orphans (sorted).  A listed segment
    whose file is missing is included (it reads as empty).  With no
    readable manifest every file is [Open] — adopted, since nothing
    can be distinguished. *)

val read_lines : string -> string list
(** Every line of every non-orphan segment, in logical order. *)

val read_text : string -> string
(** The concatenated raw bytes of every non-orphan segment — the
    store's single-file rendering (the daemon's journal route). *)

(** {1 Writing} *)

type t

val create :
  ?io:Conferr_harden.Diskchaos.io ->
  ?fresh:bool ->
  ?segment_bytes:int ->
  string ->
  t
(** Open (creating the directory if needed) for appending.
    [~fresh:true] deletes every segment and the manifest first.  When
    resuming, existing sealed/open segments are left untouched —
    appends go to {e new} segments, and the executor's final
    checkpoint compacts everything.  [segment_bytes] defaults to the
    manifest's recorded bound, then {!default_segment_bytes}.  All
    writes go through [io] (default {!Conferr_harden.Diskchaos.real}). *)

val append_line : t -> string -> unit
(** Append one line (newline included) to the calling domain's open
    segment, flushing it to the OS, and rotate the segment if it
    reached the bound.  Safe to call from any domain concurrently. *)

val close : t -> unit
(** Seal every open segment and record it in the manifest.  May raise
    (the manifest update goes through the store's [io]). *)

val checkpoint :
  ?io:Conferr_harden.Diskchaos.io -> ?segment_bytes:int -> string -> string list -> unit
(** Atomically replace the store's logical content with exactly
    [lines] (each newline-terminated): write them to one fresh segment (temp + rename), cut the
    manifest over to it alone, then delete the old segments.  A crash
    before the manifest cutover leaves the new segment as an ignored
    orphan; after it, the stale old segments are the orphans —
    readers see the old or the new content, never a mixture. *)

(** {1 Repair primitives (policy lives in {!Journal})} *)

val truncate_segment :
  ?io:Conferr_harden.Diskchaos.io -> dir:string -> string -> int -> unit
(** Truncate segment [name] to its first [n] bytes, atomically. *)

val reseal : ?io:Conferr_harden.Diskchaos.io -> ?segment_bytes:int -> string -> unit
(** Rebuild the manifest from the segment files on disk: every
    non-orphan segment (every segment, when no manifest is readable)
    is sealed with a freshly computed CRC/line count, in logical
    order; orphan files are deleted.  Leftover [*.tmp] files are
    removed too.  The repair endgame after damaged segments have been
    truncated. *)
