(** Static rule sets for the six mini SUTs (doc/lint.md).

    Each list captures, as {!Conferr_lint.Rule.t} data, both the checks
    the SUT's own validator performs at startup ("agreement" rules — a
    hit predicts a startup rejection) and the checks it omits (the flaw
    tables of the paper's §5 — a hit on a configuration the SUT boots is
    a {e silent acceptance} validator gap).  Rule documentation strings
    say which is which.

    Agreement rules call the simulator's own checks rather than copying
    them: each simulator writes its startup validation once, and [boot]
    stops at the first problem while the rules here take every problem
    with its site ({!Sut.first_problem}, {!Sut.all_problems}).  Value
    checks, pg's cross-parameter constraints ({!Mini_pg.relations}),
    MySQL's value reading ({!Mini_mysql.read_value}) and the Apache,
    BIND and application-server walks ({!Mini_apache.check},
    {!Mini_bind.read_named_conf}, {!Mini_appserver.check}) are each
    stated once, so the linter and the simulated server cannot drift
    apart. *)

val postgres : Conferr_lint.Rule.t list
(** postgresql.conf: unknown/duplicate/missing parameters, per-spec
    value checks, and the §5.2 cross-parameter constraints as
    [Relation] rules ([PG-REL-FSM], [PG-REL-SHMEM]).  PostgreSQL
    validates strictly, so most rules are agreement rules; the silent
    gap is deletion (built-in defaults apply without a message). *)

val mysql : Conferr_lint.Rule.t list
(** my.cnf: the quirky value parsers (stop-at-first-multiplier,
    silently-defaulted out-of-range values), abbreviated names, latent
    errors in never-parsed tool sections, unknown sections. *)

val apache : Conferr_lint.Rule.t list
(** httpd.conf + ssl.conf: every problem of the server's directive
    processing (modules, [<IfModule>] skipping, value validators) plus
    the freeform-string flaws (ServerName, ServerAdmin, MIME types) and
    functional-failure predictions (Listen/DocumentRoot/DirectoryIndex). *)

val bind : Conferr_lint.Rule.t list
(** named.conf + zone files: option/zone declarations, dangling zone
    file references, the zone-load consistency checks BIND performs, and
    the RFC-1912 forward/reverse cross-checks it does {e not} perform
    (missing PTR, PTR to alias, CNAME chains). *)

val named_conf :
  (Conferr_lint.Rule.raw list * Mini_bind.zone_decl list) Conferr_lint.Rule.view
(** named's reading of named.conf ({!Mini_bind.read_named_conf}): every
    problem, as the [BD-CONF] finding it becomes, and the zones declared
    with a file.  The BD-* rules and the deep reference-graph rule read
    it once per set. *)

val djbdns : Conferr_lint.Rule.t list
(** tinydns [data]: syntax (agreement — tinydns-data checks it too) and
    the referential checks tinydns-data never makes (CNAME collisions
    and chains, NS/MX targets that are aliases). *)

val appserver : Conferr_lint.Rule.t list
(** server.xml: unknown elements (silently skipped by the server — the
    XML flaw), strict attribute validation (agreement), connector/host
    functional predictions. *)

val all : (string * Conferr_lint.Rule.t list) list
(** Keyed by {!Sut.t.sut_name}, in registry order. *)

val for_sut : string -> Conferr_lint.Rule.t list option

val ids : Conferr_lint.Rule.t list -> string list
(** Distinct rule ids, first-appearance order.  The id is the unit the
    inference differ ([lib/infer]) counts recovery over, and the replay's
    claim-aware classification reads one claim per id.  Ids repeat only
    where one constraint is stated per directive: one [PG-VALUE] rule
    per parameter spec, one [PG-REQUIRED] rule per stock directive, and
    [AP-MIME] for both DefaultType and AddType.  Rules sharing an id
    share its claim and severity (a test checks every built-in set, base
    and deepened). *)
