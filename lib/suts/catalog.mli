(** The registry of built-in simulated SUTs.

    One authoritative list of every simulator plus the name aliases the
    docs and Makefile use ([mini_pg], [httpd], [tinydns]…), shared by
    the CLI front end and the campaign daemon (doc/serve.md) so both
    resolve ["--sut mini_pg"] identically. *)

val all : Sut.t list
(** Every built-in SUT, in the paper's presentation order. *)

val find : string -> Sut.t option
(** Resolve a canonical name or alias, case-insensitively. *)

val names : string list
(** Canonical names of {!all}, for error messages. *)
