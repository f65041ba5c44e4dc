(** Log-template mining (doc/infer.md).

    A template is a SUT error/validator message with every volatile
    span masked — the normalization is {!Conferr_exec.Signature.normalize}
    (lowercase; decimal/hex literals and unit-suffixed sizes/durations
    to [#]; quoted spans to [<q>]; whitespace collapsed), the same
    masking the signature-clustering layer uses, so one runtime failure
    mode maps to one template regardless of the concrete values in it
    (ConfInLog's first step).

    The extraction helpers below read the {e raw} message: the masked
    spans are exactly where the constraint parameters live (the quoted
    token names the directive, the integers in a "valid range" clause
    are its bounds). *)

val mine : string -> string
(** The template of a message.  Idempotent (property-tested). *)

val ints : string -> int list
(** Decimal integer literals (maximal digit runs that fit in [int]),
    in order. *)

val parenthesized : string -> string option
(** The contents of the last balanced [(...)] span, if any — error
    messages conventionally put the valid range there
    (["(64 .. 2147483647)"]). *)

val mentions : name:string -> string -> bool
(** Whole-word, case-insensitive occurrence of a directive name in a
    message or template (word characters: letters, digits, [_], [-]). *)
