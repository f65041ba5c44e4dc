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

val named_conf :
  (Conferr_lint.Rule.raw list * Mini_bind.zone_decl list) Conferr_lint.Rule.view
(** named's reading of named.conf ({!Mini_bind.read_named_conf}): every
    problem, as the [BD-CONF] finding it becomes, and the zones declared
    with a file.  The BD-* rules and the deep reference-graph rule read
    it once per set. *)

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
