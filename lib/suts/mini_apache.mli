(** Simulated Apache HTTP Server 2.2.

    Behaviours reproduced (paper §5.2 and Table 2):

    - directive names are case-insensitive; an unknown name aborts
      startup with "Invalid command ... perhaps misspelled or defined by
      a module not included in the server configuration"
    - directives are provided by modules: deleting (or typo-ing) a
      [LoadModule] line makes every directive of that module an invalid
      command — the mechanism behind many startup-detected faults
    - [AddType]/[DefaultType] accept freeform strings instead of
      RFC-2045 [type/subtype] values (flaw); [ServerAdmin] and
      [ServerName] likewise accept anything (flaws)
    - a typo in [Listen]'s port survives startup and is only caught by
      the functional HTTP GET (the paper's 5% functional detections)
    - nested sections ([<VirtualHost>], [<Directory>], [<IfModule>]);
      [<IfModule>] bodies are skipped when the module is absent
    - enum-valued directives ([LogLevel], [KeepAlive], [Options], ...)
      are strictly validated *)

val sut : Sut.t

(** {1 Exposed for white-box unit tests} *)

val known_module : string -> bool

val directive_module : string -> string option
(** The module a directive comes from ([None] = core). *)

(** {1 Exposed for the static rule set ({!Lint_rules.for_sut})} *)

val fields : string -> string list
(** A directive's arguments, split on blanks the way httpd splits them. *)

type site = string * Conftree.Path.t
(** A file of the configuration and a node in it. *)

(** What the startup checks learn about the configuration: what a
    server that starts runs with. *)
type state = private {
  mutable loaded : string list;  (** module identifiers *)
  mutable listeners : int list;
  mutable first_listen : site option;
  mutable document_root : string;
  mutable document_root_at : site option;
  mutable vhost_roots : (int * string) list;  (** latest first *)
  mutable directory_index : string list;
  mutable directory_index_at : site option;
  mutable unknown_ifmodules : (site * string) list;
      (** [<IfModule>]s naming a module httpd does not know, with their
          argument, latest first: their bodies are silently skipped *)
}

val check : Sut.report -> (string * Conftree.Node.t) list -> state
(** [check report files] runs httpd's startup checks over the parsed
    configuration files, in order: [LoadModule] over every file and
    section first, then each file's directives and sections, skipping
    the bodies of absent modules' [<IfModule>]s.  It reports each
    problem with its site: an unknown or module-less directive, a bad
    value, an unknown section or a bad [<VirtualHost>] port. *)

val listening : state -> (unit, string) result
(** The last startup check: without a listener httpd shuts down. *)
