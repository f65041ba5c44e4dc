(* Differential oracle across the campaign loops.  On seeded random
   subsets of the pg and bind paper faultloads (up to 96 scenarios, so
   that jobs 4 runs four domains over ranges of 16), every scenario's
   outcome is the same whichever loop runs it:
   - the in-memory engine loop ([Engine.run_from]);
   - the executor at 1 and 4 workers, with no journal, a v2 journal file
     and a v3 segmented store;
   - an executor run resumed from a half-written journal;
   - the explorer over the same scenarios as a finite stream, in
     batches of 8 (many small batches, duplicates across their
     boundaries) and of 48 (above one range), which skips
     byte-identical mutants but must agree on everything it runs or
     classifies as n/a. *)

module Engine = Conferr.Engine
module Profile = Conferr.Profile
module Executor = Conferr_exec.Executor
module Explore = Conferr_adapt.Explore
module Scenario = Errgen.Scenario
module Rng = Conferr_util.Rng

let silent (_ : Conferr_exec.Progress.event) = ()

type faultload = {
  sut : Suts.Sut.t;
  base : Conftree.Config_set.t;
  scenarios : Scenario.t array;
}

let faultload sut =
  match Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "default config: %s" msg
  | Ok base ->
    let scenarios =
      Conferr.Campaign.typo_scenarios ~rng:(Rng.create 42)
        ~faultload:Conferr.Campaign.paper_faultload sut base
    in
    { sut; base; scenarios = Array.of_list scenarios }

(* A seeded subset of at most [max_size] scenarios, in faultload order. *)
let subset ~max_size fl seed =
  let rng = Rng.create seed in
  let n = Array.length fl.scenarios in
  let keep = Array.make n false in
  for _ = 1 to 1 + Rng.int rng max_size do
    keep.(Rng.int rng n) <- true
  done;
  List.filteri (fun i _ -> keep.(i)) (Array.to_list fl.scenarios)

let outcomes (p : Profile.t) =
  List.map (fun (e : Profile.entry) -> (e.Profile.scenario_id, e.outcome)) p.entries

let temp_name suffix =
  let path = Filename.temp_file "conferr_oracle" suffix in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp suffix f =
  let path = temp_name suffix in
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let executor fl ?journal_path ?segment_bytes ?(resume = false) ~jobs scenarios =
  let settings =
    { Executor.default_settings with jobs; journal_path; segment_bytes; resume }
  in
  fst
    (Executor.run_from ~settings ~on_event:silent ~sut:fl.sut ~base:fl.base
       ~scenarios ())

(* Keep the first half of a v2 journal's lines, then a torn fragment of
   the next one: what a campaign killed mid-append leaves behind. *)
let half_write path =
  let ic = open_in_bin path in
  let lines =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let rec read acc =
          match input_line ic with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        read [])
  in
  let half = List.length lines / 2 in
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      List.iteri
        (fun i line ->
          if i < half then output_string oc (line ^ "\n")
          else if i = half then
            output_string oc (String.sub line 0 (String.length line / 2)))
        lines)

let agree ~fl seed =
  let scenarios = subset ~max_size:96 fl seed in
  let reference = outcomes (Engine.run_from ~sut:fl.sut ~base:fl.base ~scenarios ()) in
  let same what got =
    if got <> reference then
      QCheck2.Test.fail_reportf "%s disagrees with Engine.run_from (seed %d)"
        what seed
  in
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "executor jobs %d" jobs in
      same tag (outcomes (executor fl ~jobs scenarios));
      with_temp ".jsonl" (fun path ->
          same (tag ^ " v2 journal")
            (outcomes (executor fl ~jobs ~journal_path:path scenarios)));
      with_temp ".v3" (fun path ->
          same (tag ^ " v3 store")
            (outcomes
               (executor fl ~jobs ~journal_path:path ~segment_bytes:4096
                  scenarios))))
    [ 1; 4 ];
  with_temp ".jsonl" (fun path ->
      ignore (executor fl ~jobs:1 ~journal_path:path scenarios);
      half_write path;
      same "resumed executor"
        (outcomes
           (executor fl ~jobs:4 ~journal_path:path ~resume:true scenarios)));
  List.iter
    (fun batch ->
      let report =
        Explore.run_from
          ~settings:
            {
              Explore.default_settings with
              exec = { Executor.default_settings with jobs = 4 };
              batch;
              plateau = 0;
            }
          ~on_event:silent ~sut:fl.sut ~base:fl.base
          ~stream:
            (Errgen.Gen.of_generator ~rounds:1 ~prefix:"oracle" ~seed:0
               (fun ~rng:_ _ -> scenarios) fl.base)
          ()
      in
      let explored = outcomes report.Explore.profile in
      List.iter
        (fun (id, outcome) ->
          if List.assoc_opt id reference <> Some outcome then
            QCheck2.Test.fail_reportf "explore batch %d disagrees on %s (seed %d)"
              batch id seed)
        explored;
      if List.length explored + report.Explore.duplicates <> List.length scenarios
      then
        QCheck2.Test.fail_reportf
          "explore batch %d accounted for %d of %d scenarios (seed %d)" batch
          (List.length explored + report.Explore.duplicates)
          (List.length scenarios) seed)
    [ 8; 48 ];
  true

(* The faultload is generated once per property, on first use, by the
   test runner's own domain. *)
let prop name sut =
  let fl = lazy (faultload sut) in
  QCheck2.Test.make ~count:10 ~name ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed -> agree ~fl:(Lazy.force fl) seed)

let suite =
  [
    QCheck_alcotest.to_alcotest
      (prop "pg faultload: every campaign loop agrees" Suts.Mini_pg.sut);
    QCheck_alcotest.to_alcotest
      (prop "bind faultload: every campaign loop agrees" Suts.Mini_bind.sut);
  ]
