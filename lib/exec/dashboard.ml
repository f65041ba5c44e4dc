let row_of_entry (e : Journal.entry) =
  let profile_entry =
    {
      Conferr.Profile.scenario_id = e.Journal.scenario_id;
      class_name = e.Journal.class_name;
      description = e.Journal.description;
      outcome = e.Journal.outcome;
    }
  in
  let key = Signature.of_entry profile_entry in
  {
    Conferr_obsv.Report.id = e.Journal.scenario_id;
    class_name = e.Journal.class_name;
    outcome = Conferr.Outcome.label e.Journal.outcome;
    detail = Signature.outcome_message e.Journal.outcome;
    signature =
      Printf.sprintf "%s | %s | %s" key.Signature.class_name key.Signature.label
        key.Signature.message;
    elapsed_ms = e.Journal.elapsed_ms;
    attempts = e.Journal.attempts;
    flaky = e.Journal.votes <> [];
    phase_ms = e.Journal.phase_ms;
  }

let rows_of_entries entries = List.map row_of_entry entries
