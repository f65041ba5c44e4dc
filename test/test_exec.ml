(* The campaign executor: parallel == sequential, journal resume, and
   signature clustering (ISSUE 1 acceptance criteria). *)

module Engine = Conferr.Engine
module Profile = Conferr.Profile
module Outcome = Conferr.Outcome
module Executor = Conferr_exec.Executor
module Journal = Conferr_exec.Journal
module Signature = Conferr_exec.Signature
module Progress = Conferr_exec.Progress
module Json = Conferr_obsv.Json
module Scenario = Errgen.Scenario

let sut = Suts.Mini_pg.sut

let base () =
  match Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "postgres default config: %s" msg

(* Regenerating with the same seed gives the same faultload — the
   scenario list itself is deterministic, so campaigns are comparable. *)
let scenarios base =
  Conferr.Campaign.typo_scenarios
    ~rng:(Conferr_util.Rng.create 7)
    ~faultload:Conferr.Campaign.paper_faultload sut base

let silent (_ : Progress.event) = ()

let profile_ids (p : Profile.t) =
  List.map (fun (e : Profile.entry) -> e.Profile.scenario_id) p.entries

let temp_journal () =
  let path = Filename.temp_file "conferr_exec_test" ".jsonl" in
  Sys.remove path;
  path

(* -------------------------------------------------------------- *)
(* (a) parallel profile equals sequential profile                  *)
(* -------------------------------------------------------------- *)

let test_parallel_equals_sequential () =
  let base = base () in
  let scenarios = scenarios base in
  let seq = Engine.run_from ~sut ~base ~scenarios () in
  let par, snapshot =
    Executor.run_from
      ~settings:{ Executor.default_settings with jobs = 4 }
      ~on_event:silent ~sut ~base ~scenarios ()
  in
  Alcotest.(check string) "rendered profiles identical" (Profile.render seq)
    (Profile.render par);
  Alcotest.(check string) "csv identical" (Profile.to_csv seq) (Profile.to_csv par);
  Alcotest.(check (list string)) "entry order identical" (profile_ids seq)
    (profile_ids par);
  Alcotest.(check int) "all scenarios executed" (List.length scenarios)
    snapshot.Progress.finished

(* -------------------------------------------------------------- *)
(* (b) a journal written by a killed run resumes to the same profile *)
(* -------------------------------------------------------------- *)

let test_journal_resume () =
  let base = base () in
  let scenarios = scenarios base in
  let n = List.length scenarios in
  Alcotest.(check bool) "faultload is non-trivial" true (n > 20);
  let reference, _ =
    Executor.run_from ~on_event:silent ~sut ~base ~scenarios ()
  in
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      (* "kill" the first run after half the campaign: only feed it the
         first half of the scenario list *)
      let half = List.filteri (fun i _ -> i < n / 2) scenarios in
      let _ =
        Executor.run_from
          ~settings:{ Executor.default_settings with journal_path = Some path }
          ~on_event:silent ~sut ~base ~scenarios:half ()
      in
      (* simulate the torn final line of a crash mid-append *)
      let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
      output_string oc "{\"id\":\"typo-9999\",\"class\":\"ty";
      close_out oc;
      let resumed, snapshot =
        Executor.run_from
          ~settings:
            {
              Executor.default_settings with
              jobs = 2;
              journal_path = Some path;
              resume = true;
            }
          ~on_event:silent ~sut ~base ~scenarios ()
      in
      Alcotest.(check int) "first half resumed from journal" (n / 2)
        snapshot.Progress.resumed;
      Alcotest.(check int) "second half executed" (n - (n / 2))
        snapshot.Progress.finished;
      Alcotest.(check string) "resumed profile equals uninterrupted run"
        (Profile.render reference) (Profile.render resumed);
      Alcotest.(check (list string)) "entry order preserved"
        (profile_ids reference) (profile_ids resumed);
      (* the checkpoint compacted the journal: every scenario exactly once *)
      let entries = Journal.load path in
      Alcotest.(check int) "journal holds the whole campaign" n
        (List.length entries);
      Alcotest.(check (list string)) "journal in scenario order"
        (List.map (fun (s : Scenario.t) -> s.id) scenarios)
        (List.map (fun (e : Journal.entry) -> e.Journal.scenario_id) entries))

(* -------------------------------------------------------------- *)
(* (c) signature clustering is stable under entry reordering       *)
(* -------------------------------------------------------------- *)

let cluster_testable =
  Alcotest.testable
    (fun fmt (c : Signature.cluster) ->
      Format.fprintf fmt "%d x %s/%s/%s [%s]" c.count c.key.class_name
        c.key.label c.key.message
        (String.concat "," c.scenario_ids))
    ( = )

let test_signature_stability () =
  let base = base () in
  let profile, _ =
    Executor.run_from ~on_event:silent ~sut ~base ~scenarios:(scenarios base) ()
  in
  let entries = profile.Profile.entries in
  let forward = Signature.clusters entries in
  let reversed = Signature.clusters (List.rev entries) in
  let shuffled =
    Signature.clusters (Conferr_util.Rng.shuffle (Conferr_util.Rng.create 3) entries)
  in
  Alcotest.(check (list cluster_testable)) "reversal invariant" forward reversed;
  Alcotest.(check (list cluster_testable)) "shuffle invariant" forward shuffled;
  (* clusters compress: far fewer signatures than entries, none empty *)
  Alcotest.(check bool) "compresses the profile" true
    (List.length forward < List.length entries / 2);
  List.iter
    (fun (c : Signature.cluster) ->
      Alcotest.(check int) "count matches members" c.count
        (List.length c.scenario_ids))
    forward

let test_normalize () =
  Alcotest.(check string) "masks digits and quotes"
    (Signature.normalize "unknown key \"Prot\" on line 42")
    (Signature.normalize "unknown key 'listen2'   on line 7");
  Alcotest.(check string) "collapses whitespace" "a b"
    (Signature.normalize "  A \t B  ");
  (* size literals with unit suffixes are one volatile token, so value
     typos differing only in magnitude or unit cluster together *)
  Alcotest.(check string) "masks unit-suffixed sizes"
    (Signature.normalize "invalid value 16M for shared_buffers")
    (Signature.normalize "invalid value 512kB for shared_buffers");
  Alcotest.(check string) "masks durations"
    (Signature.normalize "statement timed out after 30s")
    (Signature.normalize "statement timed out after 5min");
  Alcotest.(check string) "masks decimal fractions with units"
    (Signature.normalize "checkpoint took 2.5s")
    (Signature.normalize "checkpoint took 150ms");
  (* hex literals: 0x-prefixed always, bare runs only when they carry a
     digit (so ordinary words built from a-f survive) *)
  Alcotest.(check string) "masks 0x literals"
    (Signature.normalize "bad flags 0xDEAD12")
    (Signature.normalize "bad flags 0x7f3a99");
  Alcotest.(check string) "masks bare hex runs"
    (Signature.normalize "token 7f3a9b01 rejected")
    (Signature.normalize "token 00ffa0aa rejected");
  Alcotest.(check string) "digit-free hex-alphabet words survive"
    "dead beef facade"
    (Signature.normalize "dead beef facade");
  Alcotest.(check string) "unit suffix requires a known unit" "#nd attempt"
    (Signature.normalize "42nd attempt")

(* -------------------------------------------------------------- *)
(* Supporting machinery                                            *)
(* -------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("id", Json.Str "typo-0001");
        ("weird", Json.Str "a\"b\\c\nd\te\x07f");
        ("n", Json.Num 3.25);
        ("xs", Json.Arr [ Json.Str "x"; Json.Str "y" ]);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
      ]
  in
  let text = Json.to_string v in
  Alcotest.(check bool) "one line" false (String.contains text '\n');
  (match Json.of_string text with
   | Ok v' -> Alcotest.(check bool) "roundtrips" true (v = v')
   | Error e -> Alcotest.failf "parse: %s" e);
  (match Json.of_string "{\"torn\":" with
   | Ok _ -> Alcotest.fail "torn JSON must not parse"
   | Error _ -> ())

let test_journal_entry_roundtrip () =
  List.iter
    (fun (outcome, votes) ->
      let e =
        {
          Journal.scenario_id = "typo-0042";
          class_name = "typo/value";
          description = "substitute 'x' in \"key\"";
          seed = -3482680871274110419L;
          outcome;
          elapsed_ms = 0.25;
          attempts = 3;
          votes;
          phase_ms = [];
        }
      in
      match Journal.entry_of_json (Journal.entry_to_json e) with
      | Ok e' -> Alcotest.(check bool) "entry roundtrips" true (e = e')
      | Error msg -> Alcotest.failf "decode: %s" msg)
    [
      (Outcome.Passed, []);
      (Outcome.Startup_failure "bad directive", []);
      (Outcome.Test_failure [ "t1 failed"; "t2 failed" ], []);
      (Outcome.Not_applicable "inexpressible", []);
      ( Outcome.Crashed
          {
            cause = Outcome.Uncaught "Failure(\"boom\")";
            phase = Outcome.Boot;
            backtrace = "Raised at line 1\nCalled from line 2";
          },
        [
          Outcome.Crashed
            { cause = Outcome.Stack_overflow_crash; phase = Outcome.Test;
              backtrace = "" };
          Outcome.Passed;
        ] );
      ( Outcome.Crashed
          { cause = Outcome.Timeout 0.5; phase = Outcome.Harness; backtrace = "" },
        [] );
    ]

let test_scenario_seed_deterministic () =
  let a = Executor.scenario_seed ~campaign_seed:42 "typo-0001" in
  let b = Executor.scenario_seed ~campaign_seed:42 "typo-0001" in
  let c = Executor.scenario_seed ~campaign_seed:42 "typo-0002" in
  let d = Executor.scenario_seed ~campaign_seed:43 "typo-0001" in
  Alcotest.(check bool) "stable" true (a = b);
  Alcotest.(check bool) "id-sensitive" true (a <> c);
  Alcotest.(check bool) "seed-sensitive" true (a <> d)

(* Every size around the range length (16) at every job count: the
   result equals [Array.mapi], each index is evaluated exactly once, a
   map of at most 16 elements stays in the caller's domain, and n
   elements run on at most ceil(n/16) domains. *)
let test_pool_map () =
  let caller = (Domain.self () :> int) in
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> 3 * i) in
      List.iter
        (fun jobs ->
          let what = Printf.sprintf "n %d, jobs %d" n jobs in
          let calls = Array.init n (fun _ -> Atomic.make 0) in
          let domain = Array.make n (-1) in
          let out =
            Conferr_pool.map ~jobs
              (fun i x ->
                Atomic.incr calls.(i);
                domain.(i) <- (Domain.self () :> int);
                i * x)
              input
          in
          Alcotest.(check (array int)) (what ^ ": Array.mapi")
            (Array.mapi ( * ) input) out;
          Array.iteri
            (fun i c ->
              Alcotest.(check int) (Printf.sprintf "%s: index %d once" what i) 1
                (Atomic.get c))
            calls;
          let used = List.sort_uniq compare (Array.to_list domain) in
          Alcotest.(check bool) (what ^ ": at most ceil(n/16) domains") true
            (List.length used <= (n + 15) / 16);
          if n <= 16 then
            Alcotest.(check (list int)) (what ^ ": in the caller's domain")
              (if n = 0 then [] else [ caller ]) used)
        [ 1; 2; 3; 4; 8 ])
    [ 0; 1; 15; 16; 17; 33; 100 ]

exception Boom of int

(* One raising element: [map] re-raises that exception in the caller,
   whether the elements ran in the calling domain or in workers. *)
let test_pool_map_raises () =
  let input = Array.init 100 Fun.id in
  List.iter
    (fun jobs ->
      match Conferr_pool.map ~jobs (fun _ x -> if x = 37 then raise (Boom x) else x) input with
      | _ -> Alcotest.failf "jobs %d: map returned past a raising element" jobs
      | exception Boom x -> Alcotest.(check int) (Printf.sprintf "jobs %d" jobs) 37 x)
    [ 1; 2 ]

(* At jobs 1 the first raise ends the map: nothing after it runs. *)
let test_pool_map_stops_at_first_raise () =
  let calls = ref 0 in
  (match
     Conferr_pool.map ~jobs:1
       (fun _ x ->
         incr calls;
         raise (Boom x))
       (Array.init 100 Fun.id)
   with
   | _ -> Alcotest.fail "map returned past a raising element"
   | exception Boom 0 -> ()
   | exception Boom x -> Alcotest.failf "raised Boom %d, not Boom 0" x);
  Alcotest.(check int) "f called once" 1 !calls

let test_pool_timeout () =
  (match Conferr_pool.with_timeout ~timeout_s:5.0 (fun () -> 1 + 1) with
   | Some 2 -> ()
   | Some n -> Alcotest.failf "unexpected %d" n
   | None -> Alcotest.fail "fast work must not time out");
  match
    Conferr_pool.with_timeout ~timeout_s:0.05 (fun () ->
        Thread.delay 5.0;
        0)
  with
  | None -> ()
  | Some _ -> Alcotest.fail "sleeping work must time out"

let test_executor_timeout_classified () =
  let base = base () in
  let hang =
    Scenario.make ~id:"hang-0001" ~class_name:"test/hang"
      ~description:"pathological mutation that never terminates" (fun _ ->
        Thread.delay 60.0;
        Error "unreachable")
  in
  let events = ref [] in
  let profile, snapshot =
    Executor.run_from
      ~settings:{ Executor.default_settings with timeout_s = Some 0.05 }
      ~on_event:(fun e -> events := e :: !events)
      ~sut ~base ~scenarios:[ hang ] ()
  in
  Alcotest.(check int) "timeout counted" 1 snapshot.Progress.timeouts;
  (* a scenario that exhausts its timeout budget is a harness crash
     (the SUT never answered), not a functional failure of the SUT *)
  (match (Profile.summarize profile).Profile.crashed with
   | 1 -> ()
   | n -> Alcotest.failf "expected 1 crashed, got %d" n);
  match profile.Profile.entries with
  | [ { outcome = Outcome.Crashed { cause = Outcome.Timeout _; phase = Outcome.Harness; _ }; _ } ] ->
    ()
  | _ -> Alcotest.fail "expected Crashed (Timeout) in harness phase"

let suite =
  [
    Alcotest.test_case "parallel equals sequential" `Quick
      test_parallel_equals_sequential;
    Alcotest.test_case "journal resume" `Quick test_journal_resume;
    Alcotest.test_case "signature stability" `Quick test_signature_stability;
    Alcotest.test_case "signature normalization" `Quick test_normalize;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "journal entry roundtrip" `Quick test_journal_entry_roundtrip;
    Alcotest.test_case "scenario seeds deterministic" `Quick
      test_scenario_seed_deterministic;
    Alcotest.test_case "pool map" `Quick test_pool_map;
    Alcotest.test_case "pool timeout" `Quick test_pool_timeout;
    Alcotest.test_case "executor classifies timeouts" `Quick
      test_executor_timeout_classified;
    Alcotest.test_case "pool map re-raises an element's exception" `Quick
      test_pool_map_raises;
    Alcotest.test_case "pool map at jobs 1 stops at the first raise" `Quick
      test_pool_map_stops_at_first_raise;
  ]
