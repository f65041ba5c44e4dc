(** Parse failures reported by format parsers. *)

type t = { line : int; message : string }
(** [line] is 1-based; 0 means "whole file". *)

val make : ?line:int -> string -> t

val to_string : t -> string
