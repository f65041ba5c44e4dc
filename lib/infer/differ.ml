module Rule = Conferr_lint.Rule
module Finding = Conferr_lint.Finding
module Journal = Conferr_exec.Journal

type rule_verdict = {
  rule_id : string;
  claim : Rule.claim;
  fired : string list;
  matched : string list;
  contradicting : string list;
}

type t = {
  rules : rule_verdict list;
  recovered : string list;
  missed_by_inference : string list;
  contradicted : string list;
  missed_by_hand : string list;
  matches_of : (string * string list) list;
}

let lower = String.lowercase_ascii

let overlaps support fired = List.exists (fun id -> List.mem id fired) support

let file_ok (target : Rule.target) file =
  match target.in_file with None -> true | Some f -> f = file

(* Does candidate [c] match one concrete rule body sharing the id?
   Typed bodies match by shape + name; opaque bodies by evidence
   overlap. *)
let body_matches (c : Candidate.t) ~fired (rule : Rule.t) =
  match (rule.body, c.kind) with
  | Rule.Value v, Candidate.Value ->
    v.canon v.name = v.canon c.name && file_ok v.target c.file
  | Rule.Reference r, Candidate.Value ->
    r.canon r.name = r.canon c.name && file_ok r.target c.file
  | Rule.Required r, Candidate.Required ->
    lower r.name = lower c.name && r.file = c.file
  | Rule.Unknown u, Candidate.Unknown -> file_ok u.target c.file
  | Rule.Implies _, Candidate.Implies -> overlaps c.support fired
  | Rule.Relation r, Candidate.Implies ->
    (* an implies candidate names its co-constrained directives "a+b" *)
    let names l = List.sort_uniq compare (List.map r.canon l) in
    names
      (List.map
         (fun (t : Rule.term) -> t.t_name)
         (r.lhs.l_terms @ r.rhs.l_terms))
    = names (String.split_on_char '+' c.name)
    && file_ok r.target c.file
  | Rule.Check_set _, _ -> overlaps c.support fired
  | _ -> false

let diff ~hand ~(replay : Conferr_lint_replay.report) ~candidates =
  (* entry ids each hand rule id fires on, and each id's claim/severity
     (rules sharing an id share both) *)
  let ids = Suts.Lint_rules.ids hand in
  let fired_tbl : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let outcome_tbl : (string, string) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (r : Conferr_lint_replay.row) ->
      let entry_id = r.entry.Journal.scenario_id in
      Hashtbl.replace outcome_tbl entry_id
        (Conferr.Outcome.label r.entry.Journal.outcome);
      let seen = ref [] in
      List.iter
        (fun (f : Finding.t) ->
          if not (List.mem f.rule_id !seen) then begin
            seen := f.rule_id :: !seen;
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt fired_tbl f.rule_id)
            in
            Hashtbl.replace fired_tbl f.rule_id (entry_id :: prev)
          end)
        r.findings)
    replay.rows;
  let fired id =
    List.rev (Option.value ~default:[] (Hashtbl.find_opt fired_tbl id))
  in
  let rules_of id = List.filter (fun (r : Rule.t) -> r.id = id) hand in
  let matches_of =
    List.map
      (fun (c : Candidate.t) ->
        let matched =
          List.filter
            (fun id ->
              List.exists (body_matches c ~fired:(fired id)) (rules_of id))
            ids
        in
        (c.Candidate.id, matched))
      candidates
  in
  let rules =
    List.map
      (fun id ->
        let rs = rules_of id in
        let claim =
          match rs with r :: _ -> r.Rule.claim | [] -> Rule.Unspecified
        in
        let severity =
          match rs with r :: _ -> r.Rule.severity | [] -> Finding.Info
        in
        let fired = fired id in
        let matched =
          List.filter_map
            (fun (cid, rids) -> if List.mem id rids then Some cid else None)
            matches_of
        in
        (* an agreement-claim error rule predicts a startup rejection;
           an entry it fires on that the SUT accepted silently refutes
           the claim *)
        let contradicting =
          if claim = Rule.Agreement && severity = Finding.Error then
            List.filter
              (fun e -> Hashtbl.find_opt outcome_tbl e = Some "ignored")
              fired
          else []
        in
        { rule_id = id; claim; fired; matched; contradicting })
      ids
  in
  {
    rules;
    recovered =
      List.filter_map
        (fun r ->
          if r.matched <> [] && r.contradicting = [] then Some r.rule_id
          else None)
        rules;
    missed_by_inference =
      List.filter_map
        (fun r ->
          if r.matched = [] && r.contradicting = [] then Some r.rule_id
          else None)
        rules;
    contradicted =
      List.filter_map
        (fun r -> if r.contradicting <> [] then Some r.rule_id else None)
        rules;
    missed_by_hand =
      List.filter_map
        (fun (cid, rids) -> if rids = [] then Some cid else None)
        matches_of;
    matches_of;
  }

type verdict = Recovered | Missed_by_inference | Contradicted | Missed_by_hand

let verdict_label = function
  | Recovered -> "recovered"
  | Missed_by_inference -> "missed-by-inference"
  | Contradicted -> "contradicted"
  | Missed_by_hand -> "missed-by-hand"

let rule_verdict id t =
  if List.mem id t.contradicted then Contradicted
  else if List.mem id t.recovered then Recovered
  else Missed_by_inference

let candidate_verdict id t =
  match List.assoc_opt id t.matches_of with
  | Some [] | None -> Missed_by_hand
  | Some _ -> Recovered
