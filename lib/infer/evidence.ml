module Journal = Conferr_exec.Journal
module Signature = Conferr_exec.Signature

type row = {
  scenario_id : string;
  class_name : string;
  description : string;
  outcome : string;
  message : string;
  template : string;
  edits : Edit.t list;
}

type t = { sut_name : string; rows : row list; unmatched : string list }

let collect ?jobs ~sut ~scenarios ~entries ~base () =
  let by_id = Conferr.Faultload.by_id scenarios in
  let arr = Array.of_list entries in
  let rows =
    Conferr_pool.map ?jobs
      (fun _ (entry : Journal.entry) ->
        let message = Signature.outcome_message entry.outcome in
        let edits, matched =
          match by_id entry.scenario_id with
          | None -> ([], false)
          | Some sc -> (
            match sc.apply base with
            | Error _ -> ([], true)
            | Ok mutated -> (Edit.diff ~base ~mutated, true))
        in
        ( {
            scenario_id = entry.scenario_id;
            class_name = entry.class_name;
            description = entry.description;
            outcome = Conferr.Outcome.label entry.outcome;
            message;
            template = Template.mine message;
            edits;
          },
          matched ))
      arr
  in
  let rows = Array.to_list rows in
  let unmatched =
    List.filter_map
      (fun (r, matched) -> if matched then None else Some r.scenario_id)
      rows
  in
  { sut_name = sut.Suts.Sut.sut_name; rows = List.map fst rows; unmatched }
