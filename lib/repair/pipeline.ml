module Node = Conftree.Node
module Config_set = Conftree.Config_set
module Finding = Conferr_lint.Finding
module Outcome = Conferr.Outcome

type status = Repaired | Already_clean | Unrepaired | Skipped

let status_label = function
  | Repaired -> "repaired"
  | Already_clean -> "already-clean"
  | Unrepaired -> "unrepairable"
  | Skipped -> "skipped"

type target = {
  tg_id : string;
  tg_class : string;
  tg_config : (Config_set.t, string) result;
  tg_outcome : Outcome.t option;
}

let file_target ~id set =
  { tg_id = id; tg_class = "file"; tg_config = Ok set; tg_outcome = None }

let journal_targets ?(ids = []) ~scenarios ~stock entries =
  let by_id = Conferr.Faultload.by_id scenarios in
  entries
  |> List.filter (fun (e : Conferr_exec.Journal.entry) ->
         ids = [] || List.mem e.scenario_id ids)
  |> List.map (fun (e : Conferr_exec.Journal.entry) ->
         let config =
           match by_id e.scenario_id with
           | None ->
             Error
               (Printf.sprintf
                  "no scenario regenerated for id '%s' (seed mismatch?)"
                  e.scenario_id)
           | Some s -> s.Errgen.Scenario.apply stock
         in
         {
           tg_id = e.scenario_id;
           tg_class = e.class_name;
           tg_config = config;
           tg_outcome = Some e.outcome;
         })

type edit_view = {
  e_file : string;
  e_path : string;
  e_op : string;
  e_text : string;
}

type repair = {
  r_id : string;
  r_class : string;
  r_status : status;
  r_detail : string;
  r_edits : edit_view list;
  r_findings : int;
  r_outcome : string;
  r_candidates : int;
  r_chosen : Validate.verdict option;
  r_matches_stock : bool;
}

type result = {
  sut_name : string;
  repairs : repair list;
  validated : int;
  judged : int;
}

let outcome_messages = function
  | Outcome.Startup_failure m -> [ m ]
  | Outcome.Test_failure ms -> ms
  | Outcome.Crashed c -> [ Outcome.crash_summary c ]
  | Outcome.Passed | Outcome.Not_applicable _ -> []

(* Per-target analysis: lint + boot the broken set, decide whether it
   needs repair, and if so generate the ranked candidate list, each
   candidate applied and serialized. *)
type analysis =
  | A_skip of string
  | A_clean of { findings : int; outcome : string }
  | A_cands of {
      findings : int;
      outcome : string;
      staged : Validate.staged list;
    }

let staged_of = function A_cands { staged; _ } -> staged | A_skip _ | A_clean _ -> []

(* Candidates validated per target, cheapest first. *)
let max_candidates = 24

let analyze ~nearest ~specs ~sut ~rules ~stock tg =
  match tg.tg_config with
  | Error msg -> A_skip msg
  | Ok broken ->
    let typed = Generate.typed_findings ~nearest ~rules broken in
    let warnings =
      List.filter
        (fun (_, (f : Finding.t)) ->
          Finding.at_least ~threshold:Finding.Warning f.severity)
        typed
    in
    let outcome =
      match tg.tg_outcome with
      | Some o -> o
      | None -> (
        match Conferr.Engine.serialize_config sut broken with
        | Error msg -> Outcome.Startup_failure msg
        | Ok files -> Conferr.Engine.boot_and_test sut files)
    in
    let findings = List.length warnings in
    let outcome_label = Outcome.label outcome in
    if findings = 0 && outcome = Outcome.Passed then
      A_clean { findings; outcome = outcome_label }
    else begin
      let messages =
        List.map (fun (_, (f : Finding.t)) -> f.message) warnings
        @ outcome_messages outcome
      in
      let clusters =
        Cluster.candidates ~specs ~stock ~broken ~messages ()
      in
      let generated =
        Generate.candidates ~nearest ~findings:typed ~stock ~broken ()
      in
      let all =
        (* clusters first so dedup attributes shared edit sets to them *)
        List.fold_left
          (fun acc (c : Generate.candidate) ->
            if List.exists (fun (c' : Generate.candidate) -> c'.edits = c.edits) acc
            then acc
            else c :: acc)
          [] (clusters @ generated)
        |> List.rev
        |> List.stable_sort (fun (a : Generate.candidate) b ->
               compare
                 (Redit.total_cost ~broken a.edits)
                 (Redit.total_cost ~broken b.edits))
        |> List.filteri (fun i _ -> i < max_candidates)
      in
      A_cands
        {
          findings;
          outcome = outcome_label;
          staged = List.map (Validate.stage ~sut ~broken) all;
        }
    end

let equal_stock ~stock repaired =
  let ls = Config_set.to_list stock and lr = Config_set.to_list repaired in
  List.length ls = List.length lr
  && List.for_all
       (fun (file, st) ->
         match Config_set.find repaired file with
         | Some rt -> Node.equal_modulo_attrs st rt
         | None -> false)
       ls

let run ?(jobs = 1) ?(nearest = Generate.default_nearest) ?(specs = [])
    ~sut ~rules ~stock targets =
  let targets_a = Array.of_list targets in
  (* phase A: lint + boot each broken set, generate and stage candidates *)
  let analyses =
    Conferr_pool.map ~jobs
      (fun _ tg -> analyze ~nearest ~specs ~sut ~rules ~stock tg)
      targets_a
  in
  (* phase B: judge each distinct serialized configuration once, in
     first-appearance order; most candidates of a journal serialize to
     a few configurations (the stock one above all) *)
  let index = Hashtbl.create 64 in
  let distinct = ref [] in
  Array.iter
    (fun a ->
      List.iter
        (fun (s : Validate.staged) ->
          match s.serialized with
          | Ok files when not (Hashtbl.mem index files) ->
            Hashtbl.add index files (Hashtbl.length index);
            distinct := files :: !distinct
          | Ok _ | Error _ -> ())
        (staged_of a))
    analyses;
  let judgements =
    Conferr_pool.map ~jobs
      (fun _ files -> Validate.judge ~nearest ~sut ~rules files)
      (Array.of_list (List.rev !distinct))
  in
  let judgement files = judgements.(Hashtbl.find index files) in
  (* phase C: per target, first valid candidate in rank order wins *)
  let repairs =
    Array.to_list
      (Array.mapi
         (fun i tg ->
           let base ?(edits = []) ~status ~detail ~findings ~outcome ~cands
               ~chosen ~stock_eq () =
             {
               r_id = tg.tg_id;
               r_class = tg.tg_class;
               r_status = status;
               r_detail = detail;
               r_edits = edits;
               r_findings = findings;
               r_outcome = outcome;
               r_candidates = cands;
               r_chosen = chosen;
               r_matches_stock = stock_eq;
             }
           in
           match analyses.(i) with
           | A_skip msg ->
             base ~status:Skipped ~detail:msg ~findings:0 ~outcome:"n/a"
               ~cands:0 ~chosen:None ~stock_eq:false ()
           | A_clean { findings; outcome } ->
             let stock_eq =
               match tg.tg_config with
               | Ok b -> equal_stock ~stock b
               | Error _ -> false
             in
             base ~status:Already_clean
               ~detail:"lints clean and passes the SUT's tests as-is"
               ~findings ~outcome ~cands:0 ~chosen:None ~stock_eq ()
           | A_cands { findings; outcome; staged } ->
             let chosen =
               List.to_seq staged
               |> Seq.map (Validate.verdict ~judgement)
               |> Seq.find Validate.ok
             in
             (match chosen with
             | Some v ->
               let stock_eq =
                 match v.Validate.repaired with
                 | Some r -> equal_stock ~stock r
                 | None -> false
               in
               let broken =
                 match tg.tg_config with Ok b -> b | Error _ -> assert false
               in
               let edits =
                 List.map
                   (fun e ->
                     {
                       e_file = e.Redit.file;
                       e_path = Conftree.Path.to_string (Redit.site e);
                       e_op = Redit.op_label e;
                       e_text = Redit.describe ~broken e;
                     })
                   v.Validate.candidate.Generate.edits
               in
               base ~edits ~status:Repaired
                 ~detail:v.Validate.candidate.Generate.description
                 ~findings ~outcome ~cands:(List.length staged)
                 ~chosen ~stock_eq ()
             | None ->
               base ~status:Unrepaired
                 ~detail:
                   (Printf.sprintf "%d candidate(s) failed validation"
                      (List.length staged))
                 ~findings ~outcome ~cands:(List.length staged)
                 ~chosen:None ~stock_eq:false ()))
         targets_a)
  in
  {
    sut_name = sut.Suts.Sut.sut_name;
    repairs;
    validated =
      Array.fold_left (fun n a -> n + List.length (staged_of a)) 0 analyses;
    judged = Array.length judgements;
  }

let counts result =
  let count s = List.length (List.filter (fun r -> r.r_status = s) result.repairs) in
  (count Repaired, count Already_clean, count Unrepaired, count Skipped)

let all_repaired result =
  List.for_all (fun r -> r.r_status <> Unrepaired) result.repairs
