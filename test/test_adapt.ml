(* lib/adapt: lazy scenario streams, the mutant dedup cache, and the
   feedback-directed exploration loop (ISSUE 2 acceptance criteria). *)

module Engine = Conferr.Engine
module Profile = Conferr.Profile
module Outcome = Conferr.Outcome
module Gen = Errgen.Gen
module Scenario = Errgen.Scenario
module Signature = Conferr_exec.Signature
module Progress = Conferr_exec.Progress
module Executor = Conferr_exec.Executor
module Mutant_cache = Conferr_adapt.Mutant_cache
module Explore = Conferr_adapt.Explore

let sut = Suts.Mini_pg.sut

let base () =
  match Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "postgres default config: %s" msg

(* the campaign seed used across the exec tests *)
let seed = 7

let typo_generator ~rng set =
  Conferr.Campaign.typo_scenarios ~rng
    ~faultload:Conferr.Campaign.paper_faultload sut set

let exhaustive_scenarios base =
  typo_generator ~rng:(Conferr_util.Rng.create seed) base

let typo_stream ?rounds base =
  Gen.of_generator ?rounds ~prefix:"typo" ~seed typo_generator base

let silent (_ : Progress.event) = ()

(* At most [n] elements pulled from a stream. *)
let take n g =
  let rec go k acc =
    if k = 0 then List.rev acc
    else match Gen.next g with Some x -> go (k - 1) (x :: acc) | None -> List.rev acc
  in
  go n []

let ids = List.map (fun (s : Scenario.t) -> s.id)

let settings_with ?(jobs = 1) ?(batch = 16) ?budget ?(plateau = 0) () =
  {
    Explore.default_settings with
    Explore.exec = { Executor.default_settings with jobs; campaign_seed = seed };
    batch;
    budget;
    plateau;
  }

(* -------------------------------------------------------------- *)
(* Gen: lazy streams                                               *)
(* -------------------------------------------------------------- *)

let test_gen_basics () =
  (* a lifted two-scenario generator: round 0 keeps its ids, round 1
     re-prefixes them, and a stream capped at two rounds ends there *)
  let two ~rng:_ _ =
    List.map
      (fun id -> Scenario.make ~id ~class_name:"noop" ~description:id (fun set -> Ok set))
      [ "a-0001"; "a-0002" ]
  in
  let g = Gen.of_generator ~rounds:2 ~prefix:"a" ~seed:1 two (base ()) in
  Alcotest.(check (list string)) "take stops at the end"
    [ "a-0001"; "a-0002"; "a-r1-0001"; "a-r1-0002" ] (ids (take 10 g));
  Alcotest.(check bool) "exhausted stays exhausted" true (Gen.next g = None)

let test_gen_seeded_deterministic () =
  let base = base () in
  let draw seed =
    List.map
      (fun (s : Scenario.t) -> s.id ^ " " ^ s.description)
      (take 400 (Gen.of_generator ~prefix:"typo" ~seed typo_generator base))
  in
  let a = draw 5 and b = draw 5 and c = draw 6 in
  Alcotest.(check (list string)) "same seed, same stream" a b;
  Alcotest.(check bool) "different seed, different stream" true (a <> c)

(* Round 0 of a lifted generator IS the classic faultload: same ids,
   same descriptions, in order — so streams subsume lists. *)
let test_gen_round0_is_classic_faultload () =
  let base = base () in
  let classic = exhaustive_scenarios base in
  let n = List.length classic in
  let streamed = take n (typo_stream ~rounds:1 base) in
  Alcotest.(check (list string)) "ids match"
    (List.map (fun (s : Scenario.t) -> s.id) classic)
    (List.map (fun (s : Scenario.t) -> s.id) streamed);
  Alcotest.(check (list string)) "descriptions match"
    (List.map (fun (s : Scenario.t) -> s.description) classic)
    (List.map (fun (s : Scenario.t) -> s.description) streamed);
  Alcotest.(check bool) "bounded stream ends" true
    (Gen.next (let g = typo_stream ~rounds:1 base in
               ignore (take n g);
               g)
     = None)

let test_gen_unbounded_rounds () =
  let base = base () in
  let classic = exhaustive_scenarios base in
  let n = List.length classic in
  let g = typo_stream base in
  let two_rounds = take (n + 5) g in
  Alcotest.(check int) "keeps producing past round 0" (n + 5)
    (List.length two_rounds);
  let round1_ids =
    List.filteri (fun i _ -> i >= n) two_rounds
    |> List.map (fun (s : Scenario.t) -> s.id)
  in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "round-1 id %s is re-prefixed" id)
        true
        (String.length id > 7 && String.sub id 0 7 = "typo-r1"))
    round1_ids

(* -------------------------------------------------------------- *)
(* Mutant cache                                                    *)
(* -------------------------------------------------------------- *)

(* A mutant with a novel serialized configuration is never skipped:
   deleting N distinct directives yields N distinct configs, and every
   classification must come back Fresh. *)
let test_dedup_novel_never_skipped () =
  let base = base () in
  let deletions = Errgen.Structural.omit_directives ~file:"postgresql.conf" base in
  Alcotest.(check bool) "several deletions" true (List.length deletions > 5);
  let cache = Mutant_cache.create () in
  List.iter
    (fun (s : Scenario.t) ->
      match Mutant_cache.classify cache ~sut ~base s with
      | Mutant_cache.Fresh _ -> ()
      | Mutant_cache.Duplicate_of { first_id; _ } ->
        Alcotest.failf "novel mutant %s wrongly deduped against %s" s.id first_id
      | Mutant_cache.Inexpressible msg ->
        Alcotest.failf "deletion %s inexpressible: %s" s.id msg)
    deletions;
  (* ... and a byte-identical re-application is always caught *)
  let first = List.hd deletions in
  let again = { first with Scenario.id = "again-0001" } in
  (match Mutant_cache.classify cache ~sut ~base again with
   | Mutant_cache.Duplicate_of { first_id; _ } ->
     Alcotest.(check string) "points at the first discoverer" first.Scenario.id
       first_id
   | Mutant_cache.Fresh _ -> Alcotest.fail "identical mutant not deduped"
   | Mutant_cache.Inexpressible msg -> Alcotest.failf "inexpressible: %s" msg);
  (* every deletion was registered under its own id *)
  List.iter
    (fun (s : Scenario.t) ->
      match Mutant_cache.classify cache ~sut ~base { s with Scenario.id = s.id ^ "-again" } with
      | Mutant_cache.Duplicate_of { first_id; _ } ->
        Alcotest.(check string) "registered" s.id first_id
      | _ -> Alcotest.failf "deletion %s not registered" s.id)
    deletions

let test_explore_dedup_properties () =
  let base = base () in
  let report =
    Explore.run_from
      ~settings:(settings_with ())
      ~on_event:silent ~sut ~base ~stream:(typo_stream ~rounds:1 base) ()
  in
  (* every duplicate names an earlier profile entry as its discoverer *)
  let entry_ids =
    List.map
      (fun (e : Profile.entry) -> e.Profile.scenario_id)
      report.Explore.profile.Profile.entries
  in
  List.iter
    (fun (dup, first) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s -> %s provenance" dup first)
        true
        (List.mem first entry_ids && not (List.mem dup entry_ids)))
    report.Explore.duplicate_of;
  Alcotest.(check int) "duplicate count matches provenance list"
    report.Explore.duplicates
    (List.length report.Explore.duplicate_of);
  Alcotest.(check int) "considered = executed + dups + n/a"
    report.Explore.considered
    (report.Explore.executed + report.Explore.duplicates
   + report.Explore.not_applicable + report.Explore.resumed)

(* -------------------------------------------------------------- *)
(* Determinism: --jobs must not change anything reported           *)
(* -------------------------------------------------------------- *)

let test_determinism_across_jobs () =
  let base = base () in
  let run jobs =
    Explore.run_from
      ~settings:(settings_with ~jobs ~batch:16 ~budget:96 ~plateau:4 ())
      ~on_event:silent ~sut ~base ~stream:(typo_stream base) ()
  in
  let r1 = run 1 in
  let r4 = run 4 in
  Alcotest.(check string) "frontier report byte-identical"
    (Explore.render r1) (Explore.render r4);
  Alcotest.(check string) "profile identical"
    (Profile.render r1.Explore.profile)
    (Profile.render r4.Explore.profile);
  Alcotest.(check (list (pair string string))) "dedup provenance identical"
    r1.Explore.duplicate_of r4.Explore.duplicate_of

(* -------------------------------------------------------------- *)
(* Stopping rules                                                  *)
(* -------------------------------------------------------------- *)

(* A stream that exhausts its signatures immediately (every scenario is
   the same no-op mutant) must stop via the plateau rule: one discovery
   batch, then K novelty-free batches of pure dedup. *)
let test_plateau_stop () =
  let base = base () in
  let counter = ref 0 in
  let stream =
    Gen.of_generator ~prefix:"noop" ~seed:1
      (fun ~rng:_ _ ->
        incr counter;
        [
          Scenario.make
            ~id:(Printf.sprintf "noop-%04d" !counter)
            ~class_name:"noop" ~description:"no-op at postgresql.conf:/0"
            (fun set -> Ok set);
        ])
      base
  in
  let report =
    Explore.run_from
      ~settings:(settings_with ~batch:8 ~plateau:2 ())
      ~on_event:silent ~sut ~base ~stream ()
  in
  (match report.Explore.stop with
   | Explore.Plateaued 2 -> ()
   | _ ->
     Alcotest.failf "expected Plateaued 2, got %s"
       (Explore.render report));
  Alcotest.(check int) "discovery batch + 2 empty batches" 3
    report.Explore.batches;
  Alcotest.(check int) "one distinct signature" 1
    (List.length report.Explore.frontier);
  Alcotest.(check int) "the no-op executed exactly once" 1
    report.Explore.executed;
  Alcotest.(check bool) "unbounded stream was cut off" true
    (report.Explore.considered < !counter + 1)

let test_budget_stop () =
  let base = base () in
  let report =
    Explore.run_from
      ~settings:(settings_with ~batch:8 ~budget:20 ())
      ~on_event:silent ~sut ~base ~stream:(typo_stream base) ()
  in
  (match report.Explore.stop with
   | Explore.Budget_exhausted -> ()
   | _ ->
     Alcotest.failf "expected Budget_exhausted, got %s"
       (Explore.render report));
  Alcotest.(check bool) "budget respected up to one batch of overshoot" true
    (report.Explore.executed >= 20 && report.Explore.executed < 20 + 8)

(* -------------------------------------------------------------- *)
(* Acceptance: adaptive search covers the exhaustive faultload      *)
(* -------------------------------------------------------------- *)

let signature_keys_testable =
  Alcotest.testable
    (fun fmt (k : Signature.key) ->
      Format.fprintf fmt "%s/%s/%s" k.Signature.class_name k.Signature.label
        k.Signature.message)
    ( = )

let test_explore_covers_exhaustive () =
  let base = base () in
  let scenarios = exhaustive_scenarios base in
  let exhaustive_runs = List.length scenarios in
  let exhaustive_profile = Engine.run_from ~sut ~base ~scenarios () in
  let exhaustive_keys =
    Signature.clusters exhaustive_profile.Profile.entries
    |> List.map (fun (c : Signature.cluster) -> c.Signature.key)
    |> List.sort compare
  in
  let report =
    Explore.run_from
      ~settings:(settings_with ())
      ~on_event:silent ~sut ~base ~stream:(typo_stream ~rounds:1 base) ()
  in
  let adaptive_keys =
    List.map (fun (f : Explore.frontier_entry) -> f.Explore.key)
      report.Explore.frontier
    |> List.sort compare
  in
  Alcotest.(check (list signature_keys_testable))
    "same distinct signature keys as the exhaustive faultload"
    exhaustive_keys adaptive_keys;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer SUT runs (%d < %d)" report.Explore.executed
       exhaustive_runs)
    true
    (report.Explore.executed < exhaustive_runs);
  Alcotest.(check bool) "dedup did real work" true
    (report.Explore.duplicates > 0)

(* -------------------------------------------------------------- *)
(* Journal resume                                                  *)
(* -------------------------------------------------------------- *)

let temp_journal () =
  let path = Filename.temp_file "conferr_adapt_test" ".jsonl" in
  Sys.remove path;
  path

(* The replay property: resuming an identical exploration re-executes
   nothing and reports the same frontier. *)
let test_journal_resume () =
  let base = base () in
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let settings journal_resume =
        let s = settings_with ~batch:16 ~plateau:4 () in
        {
          s with
          Explore.exec =
            { s.exec with journal_path = Some path; resume = journal_resume };
        }
      in
      let first =
        Explore.run_from ~settings:(settings false) ~on_event:silent ~sut ~base
          ~stream:(typo_stream ~rounds:1 base) ()
      in
      Alcotest.(check bool) "first run executed scenarios" true
        (first.Explore.executed > 0);
      let second =
        Explore.run_from ~settings:(settings true) ~on_event:silent ~sut ~base
          ~stream:(typo_stream ~rounds:1 base) ()
      in
      Alcotest.(check int) "resume re-executes nothing" 0
        second.Explore.executed;
      Alcotest.(check int) "every outcome reused from the journal"
        (first.Explore.executed + first.Explore.not_applicable)
        second.Explore.resumed;
      Alcotest.(check bool) "frontier identical after resume" true
        (first.Explore.frontier = second.Explore.frontier);
      Alcotest.(check bool) "energies identical after resume" true
        (first.Explore.energies = second.Explore.energies);
      Alcotest.(check string) "profile identical after resume"
        (Profile.render first.Explore.profile)
        (Profile.render second.Explore.profile))

let suite =
  [
    Alcotest.test_case "gen basics" `Quick test_gen_basics;
    Alcotest.test_case "gen seeded determinism" `Quick
      test_gen_seeded_deterministic;
    Alcotest.test_case "gen round 0 is the classic faultload" `Quick
      test_gen_round0_is_classic_faultload;
    Alcotest.test_case "gen unbounded rounds" `Quick test_gen_unbounded_rounds;
    Alcotest.test_case "novel mutants never skipped" `Quick
      test_dedup_novel_never_skipped;
    Alcotest.test_case "explore dedup provenance" `Quick
      test_explore_dedup_properties;
    Alcotest.test_case "determinism across jobs" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "plateau stop" `Quick test_plateau_stop;
    Alcotest.test_case "budget stop" `Quick test_budget_stop;
    Alcotest.test_case "explore covers the exhaustive faultload" `Quick
      test_explore_covers_exhaustive;
    Alcotest.test_case "journal resume replays" `Quick test_journal_resume;
  ]
