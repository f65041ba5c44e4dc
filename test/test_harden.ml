(* The hardened execution layer (ISSUE 3): sandbox crash taxonomy,
   flaky-run quorum, circuit breaker, chaos self-injection, and journal
   CRC/fsck. *)

module Engine = Conferr.Engine
module Outcome = Conferr.Outcome
module Profile = Conferr.Profile
module Sandbox = Conferr_harden.Sandbox
module Quorum = Conferr_harden.Quorum
module Breaker = Conferr_harden.Breaker
module Chaos = Conferr_harden.Chaos
module Repro = Conferr_harden.Repro
module Executor = Conferr_exec.Executor
module Journal = Conferr_exec.Journal
module Crc32 = Conferr_exec.Crc32
module Json = Conferr_obsv.Json
module Progress = Conferr_exec.Progress
module Scenario = Errgen.Scenario

let silent (_ : Progress.event) = ()

let pg = Suts.Mini_pg.sut

let base_of sut =
  match Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "default config: %s" msg

let noop_scenario ?(id = "noop-0001") () =
  Scenario.make ~id ~class_name:"test/noop" ~description:"no change" (fun set ->
      Ok set)

let temp_path suffix =
  let path = Filename.temp_file "conferr_harden_test" suffix in
  Sys.remove path;
  path

let temp_dir () =
  let path = temp_path ".d" in
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* A SUT whose behavior per boot is scripted by [plan]: each boot pops
   the next action (wrapping on exhaustion), so nondeterminism and crash
   sequences are reproducible in tests. *)
let scripted_sut plan =
  let step = Atomic.make 0 in
  let plan = Array.of_list plan in
  {
    Suts.Sut.sut_name = "scripted";
    version = "scripted 0.1";
    config_files = [ ("s.conf", Formats.Registry.pgconf) ];
    default_config = [ ("s.conf", "x = 1\n") ];
    boot =
      (fun _ ->
        let i = Atomic.fetch_and_add step 1 in
        match plan.(i mod Array.length plan) with
        | `Boot_crash -> failwith "scripted boot crash"
        | `Test_crash ->
          Ok
            {
              Suts.Sut.run_tests = (fun () -> failwith "scripted test crash");
              shutdown = (fun () -> ());
            }
        | `Stack_overflow ->
          let rec blow i = if i = max_int then i else 1 + blow (i + 1) in
          ignore (blow 0);
          assert false
        | `Burn_fuel ->
          Ok
            {
              Suts.Sut.run_tests =
                (fun () ->
                  while true do
                    Sandbox.tick ()
                  done;
                  assert false);
              shutdown = (fun () -> ());
            }
        | `Pass ->
          Ok
            {
              Suts.Sut.run_tests = (fun () -> [ Suts.Sut.passed "noop" ]);
              shutdown = (fun () -> ());
            });
  }

(* -------------------------------------------------------------- *)
(* Sandbox                                                          *)
(* -------------------------------------------------------------- *)

let files_of sut = sut.Suts.Sut.default_config

let test_sandbox_boot_crash () =
  let sut = scripted_sut [ `Boot_crash ] in
  match Sandbox.boot_and_test sut (files_of sut) with
  | Outcome.Crashed { cause = Outcome.Uncaught msg; phase = Outcome.Boot; _ } ->
    Alcotest.(check bool) "names the exception" true
      (Conferr_util.Strutil.contains_substring ~needle:"scripted boot crash" msg)
  | o -> Alcotest.failf "expected boot crash, got %s" (Outcome.label o)

let test_sandbox_test_crash () =
  let sut = scripted_sut [ `Test_crash ] in
  match Sandbox.boot_and_test sut (files_of sut) with
  | Outcome.Crashed { phase = Outcome.Test; _ } -> ()
  | o -> Alcotest.failf "expected test-phase crash, got %s" (Outcome.label o)

let test_sandbox_stack_overflow () =
  let sut = scripted_sut [ `Stack_overflow ] in
  match Sandbox.boot_and_test sut (files_of sut) with
  | Outcome.Crashed { cause = Outcome.Stack_overflow_crash; phase = Outcome.Boot; _ } ->
    ()
  | o -> Alcotest.failf "expected stack-overflow crash, got %s" (Outcome.label o)

let test_sandbox_fuel () =
  let sut = scripted_sut [ `Burn_fuel ] in
  (match Sandbox.boot_and_test ~fuel:500 sut (files_of sut) with
   | Outcome.Crashed { cause = Outcome.Fuel_exhausted 500; phase = Outcome.Test; _ } ->
     ()
   | o -> Alcotest.failf "expected fuel exhaustion, got %s" (Outcome.label o));
  (* without a budget, tick is a no-op for well-behaved SUTs: no fuel
     is left installed after the budgeted call *)
  match for _ = 1 to 10_000 do Sandbox.tick () done with
  | () -> ()
  | exception Conferr.Engine.Out_of_fuel _ -> Alcotest.fail "ambient fuel left installed"

(* Backtrace recording is a per-domain flag and a spawned domain starts
   with it off, so every worker must switch it on for itself: a boot
   crash carries its backtrace whichever domain ran it. *)
let test_parallel_crashes_carry_backtraces () =
  let sut = scripted_sut [ `Boot_crash ] in
  let scenarios =
    List.init 64 (fun i -> noop_scenario ~id:(Printf.sprintf "boom-%04d" i) ())
  in
  let profile, _ =
    Executor.run_from
      ~settings:{ Executor.default_settings with jobs = 4 }
      ~on_event:silent ~sut ~base:(base_of sut) ~scenarios ()
  in
  List.iter
    (fun (e : Profile.entry) ->
      match e.Profile.outcome with
      | Outcome.Crashed { phase = Outcome.Boot; backtrace; _ } ->
        Alcotest.(check bool)
          (e.Profile.scenario_id ^ " carries a backtrace")
          true (backtrace <> "")
      | o ->
        Alcotest.failf "%s: expected a boot crash, got %s" e.Profile.scenario_id
          (Outcome.label o))
    profile.Profile.entries

(* -------------------------------------------------------------- *)
(* Crash taxonomy round-trip                                        *)
(* -------------------------------------------------------------- *)

let test_cause_roundtrip () =
  List.iter
    (fun cause ->
      match Outcome.cause_of_string (Outcome.cause_to_string cause) with
      | Some c -> Alcotest.(check bool) "cause roundtrips" true (c = cause)
      | None ->
        Alcotest.failf "cause %S did not parse back"
          (Outcome.cause_to_string cause))
    [
      Outcome.Uncaught "Failure(\"x:y [z]\")";
      Outcome.Stack_overflow_crash;
      Outcome.Out_of_memory_crash;
      Outcome.Fuel_exhausted 100_000;
      Outcome.Timeout 0.1;
      Outcome.Timeout (1.0 /. 3.0);
      Outcome.Breaker_open "postgres x typo/name";
    ]

(* -------------------------------------------------------------- *)
(* Quorum                                                           *)
(* -------------------------------------------------------------- *)

let crash cause =
  Outcome.Crashed { cause; phase = Outcome.Harness; backtrace = "" }

let test_quorum_vote () =
  let a = Outcome.Passed in
  let b = crash (Outcome.Uncaught "boom") in
  let vote attempts =
    (Quorum.run ~attempts:(List.length attempts) (List.nth attempts)).Quorum.outcome
  in
  Alcotest.(check bool) "majority wins" true (vote [ b; a; a ] = a);
  Alcotest.(check bool) "tie goes to the earliest" true (vote [ b; a ] = b);
  Alcotest.(check bool) "unanimous" true (vote [ a; a; a ] = a);
  (match vote [] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty vote must raise")

let test_quorum_suspect () =
  Alcotest.(check bool) "crash is suspect" true
    (Quorum.suspect (crash (Outcome.Uncaught "boom")));
  Alcotest.(check bool) "timeout is suspect" true
    (Quorum.suspect (crash (Outcome.Timeout 1.0)));
  Alcotest.(check bool) "breaker skip is not (never executed)" false
    (Quorum.suspect (crash (Outcome.Breaker_open "b")));
  Alcotest.(check bool) "clean outcomes are not" false
    (Quorum.suspect Outcome.Passed || Quorum.suspect (Outcome.Startup_failure "x"))

let test_quorum_run_detects_flake () =
  let outcomes = [| crash (Outcome.Uncaught "boom"); Outcome.Passed; Outcome.Passed |] in
  let v = Quorum.run ~attempts:3 (fun i -> outcomes.(i)) in
  Alcotest.(check bool) "flaky" true v.Quorum.flaky;
  Alcotest.(check bool) "majority outcome" true (v.Quorum.outcome = Outcome.Passed);
  Alcotest.(check int) "all attempts kept" 3 (List.length v.Quorum.attempts);
  let stable = Quorum.run ~attempts:3 (fun _ -> Outcome.Passed) in
  Alcotest.(check bool) "stable is not flaky" false stable.Quorum.flaky

(* -------------------------------------------------------------- *)
(* Breaker                                                          *)
(* -------------------------------------------------------------- *)

let test_breaker_trips_and_recovers () =
  let b = Breaker.create ~threshold:3 ~base_backoff:4 () in
  let sut_name = "pg" and class_name = "typo/name" in
  let note crashed = Breaker.note b ~sut_name ~class_name ~crashed in
  let admit () = Breaker.admit b ~sut_name ~class_name in
  Alcotest.(check bool) "starts closed" true (admit () = `Run);
  Alcotest.(check bool) "first crash counted" true (note true = `Counted);
  Alcotest.(check bool) "second crash counted" true (note true = `Counted);
  (match note true with
   | `Tripped bucket ->
     Alcotest.(check string) "bucket name" "pg x typo/name" bucket
   | `Counted -> Alcotest.fail "third consecutive crash must trip");
  (* open: the next base_backoff scenarios are skipped *)
  for i = 1 to 4 do
    match admit () with
    | `Skip _ -> ()
    | `Run -> Alcotest.failf "admit %d must skip while open" i
  done;
  (* half-open probe; a success closes and resets *)
  Alcotest.(check bool) "probe runs" true (admit () = `Run);
  Alcotest.(check bool) "probe ok" true (note false = `Counted);
  Alcotest.(check bool) "closed again" true (admit () = `Run)

let test_breaker_backoff_doubles () =
  let b = Breaker.create ~threshold:2 ~base_backoff:3 () in
  let sut_name = "pg" and class_name = "c" in
  let note crashed = ignore (Breaker.note b ~sut_name ~class_name ~crashed) in
  let count_skips () =
    let n = ref 0 in
    let rec loop () =
      match Breaker.admit b ~sut_name ~class_name with
      | `Skip _ ->
        incr n;
        loop ()
      | `Run -> !n
    in
    loop ()
  in
  note true;
  note true (* trip #1: window 3 *);
  Alcotest.(check int) "first window" 3 (count_skips ());
  note true (* failed probe re-trips: window doubled to 6 *);
  Alcotest.(check int) "doubled window" 6 (count_skips ());
  note false (* healthy probe resets the backoff *);
  note true;
  note true;
  Alcotest.(check int) "reset window" 3 (count_skips ())

(* -------------------------------------------------------------- *)
(* Executor integration: crashes, quorum, breaker, repro            *)
(* -------------------------------------------------------------- *)

let scenarios_n n =
  List.init n (fun i -> noop_scenario ~id:(Printf.sprintf "noop-%04d" i) ())

let test_executor_crash_writes_repro () =
  let sut = scripted_sut [ `Boot_crash ] in
  let base = base_of sut in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let profile, _ =
        Executor.run_from
          ~settings:{ Executor.default_settings with quarantine_dir = Some dir }
          ~on_event:silent ~sut ~base ~scenarios:(scenarios_n 2) ()
      in
      Alcotest.(check int) "all crashed" 2 (Profile.summarize profile).Profile.crashed;
      let bundle = Filename.concat dir "noop-0000" in
      Alcotest.(check bool) "bundle dir" true (Sys.is_directory bundle);
      Alcotest.(check bool) "crash.txt" true
        (Sys.file_exists (Filename.concat bundle "crash.txt"));
      Alcotest.(check bool) "repro.sh" true
        (Sys.file_exists (Filename.concat bundle "repro.sh"));
      Alcotest.(check bool) "faulty file" true
        (Sys.file_exists (Filename.concat bundle "faulty-s.conf")))

let test_executor_quorum_outvotes_flake () =
  (* first boot crashes, every re-run passes: the quorum must out-vote
     the one-off crash and flag the scenario as flaky *)
  let sut = scripted_sut [ `Boot_crash; `Pass; `Pass; `Pass; `Pass ] in
  let base = base_of sut in
  let dir = temp_dir () in
  let path = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let profile, snapshot =
        Executor.run_from
          ~settings:
            {
              Executor.default_settings with
              quorum = 3;
              quarantine_dir = Some dir;
              journal_path = Some path;
            }
          ~on_event:silent ~sut ~base ~scenarios:[ noop_scenario () ] ()
      in
      Alcotest.(check int) "flake out-voted: ignored" 1
        (Profile.summarize profile).Profile.ignored;
      Alcotest.(check int) "flaky counted" 1 snapshot.Progress.flaky;
      Alcotest.(check (list string)) "quarantined as flaky" [ "noop-0001" ]
        (Repro.load_flaky dir);
      match Journal.load path with
      | [ e ] ->
        Alcotest.(check int) "attempts journaled" 3 e.Journal.attempts;
        Alcotest.(check int) "all votes journaled" 3 (List.length e.Journal.votes)
      | es -> Alcotest.failf "expected 1 journal entry, got %d" (List.length es))

let test_executor_breaker_short_circuits () =
  let sut = scripted_sut [ `Boot_crash ] in
  let base = base_of sut in
  let profile, snapshot =
    Executor.run_from
      ~settings:{ Executor.default_settings with breaker = Some 3 }
      ~on_event:silent ~sut ~base ~scenarios:(scenarios_n 10) ()
  in
  Alcotest.(check int) "everything crashed" 10
    (Profile.summarize profile).Profile.crashed;
  Alcotest.(check bool) "some scenarios skipped without execution" true
    (snapshot.Progress.breaker_skipped > 0);
  Alcotest.(check bool) "trip reported" true
    (List.mem_assoc "scripted x test/noop" snapshot.Progress.breaker_trips);
  let breaker_outcomes =
    List.filter
      (fun (e : Profile.entry) ->
        match e.outcome with
        | Outcome.Crashed { cause = Outcome.Breaker_open _; _ } -> true
        | _ -> false)
      profile.Profile.entries
  in
  Alcotest.(check int) "skips classified as breaker crashes"
    snapshot.Progress.breaker_skipped
    (List.length breaker_outcomes)

let test_clamp_jobs () =
  (match Executor.clamp_jobs 0 with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "jobs 0 must be rejected");
  (match Executor.clamp_jobs (-3) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "negative jobs must be rejected");
  Alcotest.(check bool) "sane value untouched" true
    (Executor.clamp_jobs 5 = Ok (5, None));
  (match Executor.clamp_jobs 1000 with
   | Ok (64, Some _) -> ()
   | _ -> Alcotest.fail "1000 clamps to 64");
  (* 64 whatever the scenario count: 200 domains would exceed the 128
     that OCaml 5.1 allows at once *)
  (match Executor.clamp_jobs 200 with
   | Ok (64, Some _) -> ()
   | _ -> Alcotest.fail "200 clamps to 64");
  Alcotest.(check bool) "64 is within the cap" true
    (Executor.clamp_jobs 64 = Ok (64, None))

(* -------------------------------------------------------------- *)
(* Chaos acceptance                                                 *)
(* -------------------------------------------------------------- *)

let chaos_settings =
  {
    Chaos.seed = 99;
    rate = 0.1;
    hang_s = 5.0;
    storm_blocks = 20_000;
    faults = [ Chaos.Crash; Chaos.Hang; Chaos.Storm; Chaos.Flip ];
  }

let test_chaos_campaign_terminates_and_resumes () =
  let base = base_of pg in
  let scenarios =
    Conferr.Campaign.typo_scenarios
      ~rng:(Conferr_util.Rng.create 7)
      ~faultload:Conferr.Campaign.paper_faultload pg base
    |> List.filteri (fun i _ -> i < 60)
  in
  let chaotic, _stats = Chaos.wrap ~settings:chaos_settings pg in
  let path = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let settings =
        {
          Executor.default_settings with
          jobs = 4;
          timeout_s = Some 0.25;
          quorum = 3;
          breaker = Some 5;
          journal_path = Some path;
        }
      in
      let _, snapshot =
        Executor.run_from ~settings ~on_event:silent ~sut:chaotic ~base
          ~scenarios ()
      in
      Alcotest.(check int) "terminates having run everything" 60
        snapshot.Progress.finished;
      (* the journal is sound and holds every scenario exactly once *)
      let report = Journal.fsck path in
      Alcotest.(check int) "no torn lines" 0 report.Journal.torn;
      Alcotest.(check int) "no corrupt lines" 0 report.Journal.corrupt;
      let ids =
        List.map (fun (e : Journal.entry) -> e.Journal.scenario_id)
          (Journal.load path)
      in
      Alcotest.(check int) "journaled exactly once" 60 (List.length ids);
      Alcotest.(check int) "no duplicate ids" 60
        (List.length (List.sort_uniq compare ids));
      (* resuming the same journal re-executes nothing, deterministically *)
      let resumed_profile, resumed_snap =
        Executor.run_from
          ~settings:{ settings with resume = true }
          ~on_event:silent ~sut:chaotic ~base ~scenarios ()
      in
      Alcotest.(check int) "resume re-executes nothing" 0
        resumed_snap.Progress.finished;
      Alcotest.(check int) "resume restores all" 60 resumed_snap.Progress.resumed;
      (* the resumed profile is deterministic: scenario-list order,
         regardless of the completion order the journal recorded *)
      Alcotest.(check (list string)) "resume restores scenario order"
        (List.map (fun (s : Scenario.t) -> s.Scenario.id) scenarios)
        (List.map
           (fun (e : Profile.entry) -> e.Profile.scenario_id)
           resumed_profile.Profile.entries))

let test_chaos_off_is_transparent () =
  let base = base_of pg in
  let scenarios =
    Conferr.Campaign.typo_scenarios
      ~rng:(Conferr_util.Rng.create 7)
      ~faultload:Conferr.Campaign.paper_faultload pg base
    |> List.filteri (fun i _ -> i < 30)
  in
  let wrapped, stats = Chaos.wrap ~settings:{ chaos_settings with rate = 0.0 } pg in
  let plain, _ =
    Executor.run_from ~on_event:silent ~sut:pg ~base ~scenarios ()
  in
  let chaotic, _ =
    Executor.run_from ~on_event:silent ~sut:wrapped ~base ~scenarios ()
  in
  Alcotest.(check string) "profiles byte-identical with chaos off"
    (Profile.render plain) (Profile.render chaotic);
  Alcotest.(check int) "nothing injected" 0 (Chaos.injected stats)

(* -------------------------------------------------------------- *)
(* Journal v2: CRC, fsck, repair, v1 compatibility                  *)
(* -------------------------------------------------------------- *)

let test_crc32_known_values () =
  (* reference vectors for IEEE CRC-32 ("check" value of the catalogue) *)
  Alcotest.(check string) "123456789" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"));
  Alcotest.(check string) "empty" "00000000" (Crc32.to_hex (Crc32.string ""));
  Alcotest.(check bool) "hex roundtrip" true
    (Crc32.of_hex "cbf43926" = Some (Crc32.string "123456789"));
  Alcotest.(check bool) "bad hex rejected" true
    (Crc32.of_hex "xyz" = None && Crc32.of_hex "0bf4392" = None)

let sample_entries n =
  List.init n (fun i ->
      {
        Journal.scenario_id = Printf.sprintf "typo-%04d" i;
        class_name = "typo/name";
        description = Printf.sprintf "scenario %d" i;
        seed = Int64.of_int (1000 + i);
        outcome =
          (if i mod 2 = 0 then Outcome.Startup_failure "unknown directive"
           else Outcome.Passed);
        elapsed_ms = 0.5;
        attempts = 1;
        votes = [];
        phase_ms = [];
      })

let write_journal entries =
  let path = temp_path ".jsonl" in
  let w = Journal.open_append ~fresh:true path in
  List.iter (Journal.append w) entries;
  Journal.close w;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let test_fsck_clean_journal () =
  let entries = sample_entries 5 in
  let path = write_journal entries in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = Journal.fsck path in
      Alcotest.(check bool) "clean" true (Journal.clean r);
      Alcotest.(check int) "all valid" 5 r.Journal.valid;
      Alcotest.(check bool) "prefix covers the file" true
        (r.Journal.valid_prefix_bytes = String.length (read_file path)))

(* The torn-write property: truncating a well-formed journal at *every*
   byte offset yields at most one damaged line, repair always produces a
   clean journal, and the repaired journal loads a prefix of the
   original entries. *)
let test_fsck_truncation_property () =
  let entries = sample_entries 4 in
  let full = read_file (write_journal entries) in
  let len = String.length full in
  let path = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      for cut = 0 to len do
        write_file path (String.sub full 0 cut);
        let r = Journal.fsck path in
        if r.Journal.torn + r.Journal.corrupt > 1 then
          Alcotest.failf "cut at %d: more than one damaged line" cut;
        if r.Journal.valid_prefix_bytes > cut then
          Alcotest.failf "cut at %d: prefix beyond the file" cut;
        let loaded = List.length (Journal.load path) in
        if loaded <> r.Journal.valid then
          Alcotest.failf "cut at %d: load found %d but fsck %d" cut loaded
            r.Journal.valid;
        let pre = Journal.survey_totals (Journal.survey ~repair:true path) in
        if (pre.Journal.valid, pre.Journal.torn, pre.Journal.corrupt)
           <> (r.Journal.valid, r.Journal.torn, r.Journal.corrupt)
        then Alcotest.failf "cut at %d: repair reported a different fsck" cut;
        let post = Journal.fsck path in
        if not (Journal.clean post) then
          Alcotest.failf "cut at %d: repair left damage" cut;
        let kept = Journal.load path in
        let expected = List.filteri (fun i _ -> i < List.length kept) entries in
        if kept <> expected then
          Alcotest.failf "cut at %d: repaired journal is not a prefix" cut
      done)

let test_fsck_detects_corruption () =
  let entries = sample_entries 3 in
  let path = write_journal entries in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* flip one byte inside the middle entry, keeping the JSON valid:
         the CRC must catch it *)
      let data = read_file path in
      let target = "scenario 1" in
      let idx =
        let n = String.length target in
        let rec find i =
          if i + n > String.length data then
            Alcotest.failf "target %S not found in journal" target
          else if String.sub data i n = target then i
          else find (i + 1)
        in
        find 0
      in
      let corrupted = Bytes.of_string data in
      Bytes.set corrupted (idx + String.length target - 1) '9';
      write_file path (Bytes.to_string corrupted);
      let r = Journal.fsck path in
      Alcotest.(check int) "one corrupt line" 1 r.Journal.corrupt;
      Alcotest.(check int) "others valid" 2 r.Journal.valid;
      Alcotest.(check int) "nothing torn" 0 r.Journal.torn;
      (* load skips it; repair keeps only the prefix before the damage *)
      Alcotest.(check int) "load skips the corrupt line" 2
        (List.length (Journal.load path));
      ignore (Journal.survey ~repair:true path);
      Alcotest.(check int) "repair truncates to the valid prefix" 1
        (List.length (Journal.load path)))

let test_journal_v1_compat () =
  (* a PR-2-era journal: bare entry objects, no wrapper, no CRC *)
  let path = temp_path ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let v1_line e =
        (* strip the v2 fields to mimic the old writer *)
        match Journal.entry_to_json e with
        | Json.Obj fields ->
          Json.to_string
            (Json.Obj (List.filter (fun (k, _) -> k <> "attempts" && k <> "votes") fields))
        | _ -> assert false
      in
      let entries = sample_entries 3 in
      write_file path
        (String.concat "" (List.map (fun e -> v1_line e ^ "\n") entries));
      let loaded = Journal.load path in
      Alcotest.(check int) "v1 lines load" 3 (List.length loaded);
      List.iter
        (fun (e : Journal.entry) ->
          Alcotest.(check int) "attempts default to 1" 1 e.Journal.attempts;
          Alcotest.(check bool) "no votes" true (e.Journal.votes = []))
        loaded;
      let r = Journal.fsck path in
      Alcotest.(check bool) "v1 journal fscks clean" true (Journal.clean r);
      Alcotest.(check int) "v1 lines count as valid" 3 r.Journal.valid)

let test_repro_flaky_list_dedupes () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Repro.record_flaky ~dir [ "a"; "b"; "a" ];
      Repro.record_flaky ~dir [ "b"; "c" ];
      Alcotest.(check (list string)) "unique union, in write order"
        [ "a"; "b"; "c" ] (Repro.load_flaky dir))

let suite =
  [
    Alcotest.test_case "sandbox boot crash" `Quick test_sandbox_boot_crash;
    Alcotest.test_case "sandbox test crash" `Quick test_sandbox_test_crash;
    Alcotest.test_case "sandbox stack overflow" `Quick test_sandbox_stack_overflow;
    Alcotest.test_case "sandbox fuel budget" `Quick test_sandbox_fuel;
    Alcotest.test_case "parallel crashes carry backtraces" `Quick
      test_parallel_crashes_carry_backtraces;
    Alcotest.test_case "crash cause roundtrip" `Quick test_cause_roundtrip;
    Alcotest.test_case "quorum vote" `Quick test_quorum_vote;
    Alcotest.test_case "quorum suspects" `Quick test_quorum_suspect;
    Alcotest.test_case "quorum detects flakes" `Quick test_quorum_run_detects_flake;
    Alcotest.test_case "breaker trips and recovers" `Quick
      test_breaker_trips_and_recovers;
    Alcotest.test_case "breaker backoff doubles" `Quick test_breaker_backoff_doubles;
    Alcotest.test_case "executor writes repro bundles" `Quick
      test_executor_crash_writes_repro;
    Alcotest.test_case "executor quorum out-votes flakes" `Quick
      test_executor_quorum_outvotes_flake;
    Alcotest.test_case "executor breaker short-circuits" `Quick
      test_executor_breaker_short_circuits;
    Alcotest.test_case "clamp jobs" `Quick test_clamp_jobs;
    Alcotest.test_case "chaos campaign terminates and resumes" `Slow
      test_chaos_campaign_terminates_and_resumes;
    Alcotest.test_case "chaos off is transparent" `Quick
      test_chaos_off_is_transparent;
    Alcotest.test_case "crc32 known values" `Quick test_crc32_known_values;
    Alcotest.test_case "fsck clean journal" `Quick test_fsck_clean_journal;
    Alcotest.test_case "fsck truncation property" `Quick
      test_fsck_truncation_property;
    Alcotest.test_case "fsck detects corruption" `Quick test_fsck_detects_corruption;
    Alcotest.test_case "journal v1 compatibility" `Quick test_journal_v1_compat;
    Alcotest.test_case "flaky list dedupes" `Quick test_repro_flaky_list_dedupes;
  ]
