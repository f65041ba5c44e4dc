(** The shared journal-faultload regenerator.

    [gaps], [infer] and [repair] all replay recorded campaign journals:
    each needs the exact scenario list the journal was recorded from,
    re-derived from the campaign seed.  The derivation must be identical
    across the three consumers — a journal replayed against a slightly
    different faultload silently mismatches scenario ids — so it lives
    here rather than being repeated per subcommand. *)

val journal_scenarios :
  seed:int -> Suts.Sut.t -> Conftree.Config_set.t -> Errgen.Scenario.t list
(** The paper typo faultload at [seed] plus, for the DNS SUTs, the
    RFC 1912 semantic scenarios with ids relabelled like
    [conferr semantic] ([semantic-0001], ...). *)

val by_id : Errgen.Scenario.t list -> string -> Errgen.Scenario.t option
(** [by_id scenarios] indexes the list once and returns the lookup from
    a scenario id to the first scenario with that id: how [gaps],
    [infer] and [repair] join journal entries to the regenerated
    faultload.  {!journal_scenarios} ids are unique (checked by
    [test_repair]), so which duplicate wins changes no output. *)
