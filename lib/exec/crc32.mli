(** CRC-32 (IEEE 802.3), the checksum guarding v2 journal lines against
    torn writes and bit rot (doc/exec.md).  A checksum is a native
    [int] holding the unsigned 32-bit value; computing one allocates
    nothing. *)

val string : string -> int
(** Checksum of a whole string. *)

val sub : string -> int -> int -> int
(** [sub s off len] is [string (String.sub s off len)], without the
    copy — how a journal line's ["entry"] bytes are verified in place.
    Raises [Invalid_argument] when the range is out of bounds. *)

val to_hex : int -> string
(** 8 lowercase hex digits, zero-padded — the journal encoding. *)

val of_hex : string -> int option
(** Inverse of {!to_hex}; [None] unless exactly 8 hex digits. *)
