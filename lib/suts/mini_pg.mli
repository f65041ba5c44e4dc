(** Simulated PostgreSQL 8.2 server.

    Behaviours reproduced (paper §5.2 and Table 2):

    - every parameter is typed and strictly validated: unknown names,
      malformed values and out-of-range values all abort startup with a
      FATAL message
    - cross-parameter constraints are enforced; in particular
      [max_fsm_pages >= 16 * max_fsm_relations] (the paper's example)
    - parameter names are case-insensitive, truncated names are rejected
    - the file is one flat section; values may be single-quoted
    - memory and time parameters require a {e complete} unit suffix —
      trailing junk after the unit is an error (contrast with
      mini-MySQL's stop-at-first-multiplier flaw) *)

val sut : Sut.t

val full_config : string
(** A configuration with most available directives set to their default
    values — the §5.5 comparison benchmark's starting file (booleans and
    defaultless parameters excluded, as in the paper). *)

(** {1 Exposed for white-box unit tests} *)

val validate_text : string -> (unit, string) result
(** Run only the configuration validation phase of [boot]. *)

(** {1 Exposed for the static rule set ({!Lint_rules.for_sut})} *)

type spec =
  | Pint of { min : int; max : int; default : int }
  | Pmem of { min_kb : int; max_kb : int; default_kb : int }
  | Ptime of { min_ms : int; max_ms : int; default_ms : int }
  | Pfloat of { fmin : float; fmax : float; fdefault : float }
  | Pbool of bool
  | Penum of string list * string
  | Pstring of (string -> bool) * string

val specs : (string * spec) list
(** Parameter name (lowercase) to validation spec; the first eight are
    the paper's default postgresql.conf. *)

type number = {
  unit_label : string;  (** ["count"], ["kb"] or ["ms"] *)
  parse : string -> string -> (int, string) result;
      (** [parse name v] is the amount in [unit_label] (bare memory
          numbers are 8kB pages, bare times ms; units must be spelled
          exactly), or the server's message *)
  lo : int;
  hi : int;
  default : int;
}

val number : spec -> number option
(** The numeric reading of a [Pint], [Pmem] or [Ptime] spec. *)

val syntax_error : string -> string option
(** The message startup aborts with on a line named [name] that is not
    a parameter assignment at all (a [\[section\]] header). *)

val check_value : string -> spec -> string -> (int option, string) result
(** [check_value name spec v] is the server's own check of one
    parameter value: [Ok (Some n)] for the number a numeric parameter
    stores, [Ok None] for an accepted non-numeric value, or the message
    startup aborts with. *)

(** A cross-parameter constraint [lhs >= coeff * rhs], over the values
    the server runs with (a parameter's default when it is not set). *)
type relation = {
  tag : string;  (** short name, e.g. ["FSM"] *)
  lhs : string;
  coeff : int;
  rhs : string;
  fatal : int -> int -> string;
      (** the message startup aborts with, given the lhs and rhs values *)
}

val relations : relation list
(** Checked in order after the whole file is read. *)
