(** Minimal JSON encoder/decoder shared by the result journal
    ([lib/exec]) and the trace exporter ([Trace]).

    Both consumers need exactly the JSON subset below (objects of
    strings, numbers, and arrays, one value per line); depending on an
    external JSON package for that would be the only third-party data
    dependency in the tree, so the codec is written out here.  Strings
    are treated as raw bytes: any byte outside printable ASCII is
    emitted as a [\u00XX] escape, so emitted lines are always 7-bit
    clean and newline-free.

    It lives in [lib/obsv] because the observability layer sits below
    the executor in the dependency order. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One-line rendering (no newlines, no insignificant whitespace). *)

val of_string : string -> (t, string) result
(** Parse one value; trailing garbage is an error.  Only the constructs
    [to_string] emits are guaranteed to round-trip.  A [\u0000]–[\u00ff]
    escape reads back as that byte; a wider one as its UTF-8 encoding. *)

(** {1 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val str : t -> string option
val num : t -> float option
val str_list : t -> string list option
