(** Simulated XML-configured application server (Tomcat-style).

    The paper lists generic XML files among the input formats ConfErr
    handles; this SUT exercises that path end-to-end.  Its configuration
    behaviour models the failure mode typical of XML-configured servers:

    - {e unknown elements are silently skipped} — a typo in an element
      name removes the whole subtree from consideration without any
      diagnostic (the XML analogue of MySQL's silent defaults)
    - attributes of {e known} elements are strictly validated: unknown
      attribute names, malformed ports, unknown protocols or log levels
      abort startup
    - a well-formedness error (broken tag) aborts startup
    - the functional test performs an HTTP GET against the connector
      port, so a numeric port typo survives startup and fails the
      diagnosis, like Apache's [Listen] *)

val sut : Sut.t

val known_elements : string list

(** {1 Exposed for the static rule set ({!Lint_rules.for_sut})} *)

(** What the startup checks learn about the configuration: what a
    server that starts runs with. *)
type state = private {
  mutable connector_ports : int list;
  mutable first_connector : Conftree.Path.t option;
  mutable app_base : string;
  mutable default_app : string;
  mutable host_at : Conftree.Path.t option;
}

val check : Sut.report -> Conftree.Node.t -> state
(** [check report root] runs the server's startup checks over the
    parsed server.xml, reporting each problem with its site: an
    attribute a known element does not have, or a bad protocol,
    timeout, port, log level, log file or user database.  Unknown
    elements are skipped with their subtrees, silently. *)

val connected : state -> (unit, string) result
(** The last startup check: the server needs a connector. *)
