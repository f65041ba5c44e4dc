(** Simulated MySQL 5.1 server.

    The configuration surface reproduces the behaviours the paper
    documents for MySQL (§5.2 and Table 2):

    - one shared file ([my.cnf]) holds the daemon section plus sections
      for auxiliary tools; {e only} [\[mysqld\]] (and, at functional-test
      time, [\[client\]]) is parsed when the daemon starts — typos in
      [\[mysqldump\]] or [\[mysqld_safe\]] stay latent
    - numeric values accept K/M/G multipliers but parsing stops at the
      first multiplier symbol: ["1M0"] is accepted as 1M
    - numeric values that {e start} with a multiplier are silently
      replaced by the default
    - out-of-bounds numeric values are silently ignored (default used)
    - directives without a value are accepted and defaulted
    - directive names are case-sensitive, but unambiguous prefixes are
      accepted, and ['-'] and ['_'] are interchangeable
    - unknown directives in [\[mysqld\]] abort startup *)

val sut : Sut.t

val full_config : string
(** A [\[mysqld\]] configuration with most variables set to their default
    values — the §5.5 comparison benchmark's starting file (flags and
    booleans excluded, as in the paper). *)

val shared_tools_config : string
(** The default configuration extended with [\[mysqldump\]] and
    [\[mysqld_safe\]] sections: the shared file whose tool sections the
    daemon never parses (the latent-error flaw of §5.2). *)

val run_mysqldump : string -> (unit, string) result
(** Simulate a later run of the [mysqldump] auxiliary tool against the
    shared configuration file: it parses only its own section, so this is
    where errors that the daemon never saw finally surface (the paper's
    latent-error scenario — "some of these auxiliary tools run
    unattended, launched by cron jobs during the night"). *)

(** {1 Exposed for white-box unit tests} *)

type parsed = Accepted of int64 | Defaulted | Rejected of string

val parse_size : default:int64 -> min:int64 -> max:int64 -> string -> parsed
(** The quirky size parser (multiplier suffixes): {!read_value}'s
    reading of a [Size] value, projected to what the server stores. *)

val parse_int : default:int64 -> min:int64 -> max:int64 -> string -> parsed

val resolve_name : string -> [ `Known of string | `Ambiguous | `Unknown ]
(** Variable-name resolution over the [\[mysqld\]] namespace: exact,
    dash/underscore-folded, or unambiguous-prefix match. *)

(** {1 Exposed for the static rule set ({!Lint_rules.for_sut})} *)

type bounds = { min : int64; max : int64; default : int64 }

type spec =
  | Size of bounds  (** accepts K/M/G multiplier suffixes *)
  | Int of bounds
  | Bool of bool
  | Path_existing of string  (** simulated filesystem lookup *)
  | Path_any of string
  | Flag  (** valueless directive *)

val mysqld_specs : (string * spec) list
(** The [\[mysqld\]] variable namespace (underscore-folded names). *)

(** How the daemon reads one [\[mysqld\]] value, and why. *)
type reading =
  | Exact of int64  (** a number, accepted as written *)
  | Truncated of int64 * char
      (** a number, accepted; the text after this multiplier is dropped *)
  | Valueless  (** a number variable without a value: the default applies *)
  | Leading_multiplier  (** starts with a multiplier: the default applies *)
  | Out_of_bounds of int64 * bool
      (** this number ([true]: scaled by a multiplier) is outside the
          bounds: the default applies *)
  | Ignored_value  (** a flag's value, dropped *)
  | Taken  (** any other accepted value *)
  | Refused of string  (** startup aborts with this message *)

val read_value : string -> spec -> string option -> reading
(** [read_value name spec value]: the daemon's reading of variable
    [name] (resolved, with spec [spec]). *)

val orphans : (string * ('site * string) list) list -> ('site * string) list
(** [orphans sections]: the options that precede any [\[group\]]
    header, which the server refuses at startup, in file order, each
    with its site and message.  A section is its group name ([""] before
    the first header) and its options, each a site and a name. *)

type tool_problem = Unknown_option of string | Bad_value of string

val check_mysqldump_option : string -> string option -> tool_problem option
(** [mysqldump]'s check of one option of its section; the message is
    what the tool prints when it next runs. *)

val fold_dashes : string -> string
(** ['-'] to ['_'], MySQL's name normalization. *)
