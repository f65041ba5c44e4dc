module Engine = Conferr.Engine
module Outcome = Conferr.Outcome
module Scenario = Errgen.Scenario
module Node = Conftree.Node

let all_suts =
  [
    Suts.Mini_mysql.sut; Suts.Mini_pg.sut; Suts.Mini_apache.sut; Suts.Mini_bind.sut;
    Suts.Mini_djbdns.sut;
  ]

let test_parse_serialize_roundtrip () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      match Engine.parse_default_config sut with
      | Error msg -> Alcotest.failf "%s parse: %s" sut.Suts.Sut.sut_name msg
      | Ok set ->
        (match Engine.serialize_config sut set with
         | Error msg -> Alcotest.failf "%s serialize: %s" sut.Suts.Sut.sut_name msg
         | Ok files ->
           Alcotest.(check int)
             (sut.Suts.Sut.sut_name ^ " file count")
             (List.length sut.Suts.Sut.config_files)
             (List.length files)))
    all_suts

let noop_scenario =
  Scenario.make ~id:"noop" ~class_name:"test/noop" ~description:"no change" (fun set ->
      Ok set)

(* The unmodified default configuration boots and passes every
   functional test: a no-op scenario through the campaign pipeline. *)
let baseline (sut : Suts.Sut.t) =
  match Engine.parse_default_config sut with
  | Error msg -> Error msg
  | Ok base -> (
    match Engine.run_scenario ~sut ~base noop_scenario with
    | Outcome.Passed -> Ok ()
    | Outcome.Startup_failure msg -> Error msg
    | Outcome.Test_failure msgs -> Error (String.concat "; " msgs)
    | o -> Error (Outcome.label o))

let test_baselines () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      match baseline sut with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s baseline: %s" sut.sut_name msg)
    all_suts

let failing_scenario =
  Scenario.make ~id:"fail" ~class_name:"test/fail" ~description:"always fails" (fun _ ->
      Error "cannot apply")

let break_port_scenario =
  Scenario.make ~id:"port" ~class_name:"test/port" ~description:"typo in port"
    (Scenario.edit_in_file ~file:"postgresql.conf" (fun tree ->
         match
           Node.find_first
             (fun n -> n.Node.kind = Node.kind_directive && n.Node.name = "max_connections")
             tree
         with
         | Some (path, node) ->
           Node.replace tree path { node with Node.value = Some "1oo" }
         | None -> None))

let pg_base () =
  match Engine.parse_default_config Suts.Mini_pg.sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "parse: %s" msg

let test_run_scenario_passed () =
  match Engine.run_scenario ~sut:Suts.Mini_pg.sut ~base:(pg_base ()) noop_scenario with
  | Outcome.Passed -> ()
  | o -> Alcotest.failf "expected Passed, got %s" (Outcome.label o)

let test_run_scenario_not_applicable () =
  match Engine.run_scenario ~sut:Suts.Mini_pg.sut ~base:(pg_base ()) failing_scenario with
  | Outcome.Not_applicable _ -> ()
  | o -> Alcotest.failf "expected N/A, got %s" (Outcome.label o)

let test_run_scenario_startup_failure () =
  match Engine.run_scenario ~sut:Suts.Mini_pg.sut ~base:(pg_base ()) break_port_scenario with
  | Outcome.Startup_failure msg ->
    Alcotest.(check bool) "explains" true
      (Conferr_util.Strutil.contains_substring ~needle:"max_connections" msg)
  | o -> Alcotest.failf "expected startup failure, got %s" (Outcome.label o)

let test_serialization_failure_is_na () =
  (* nest a section inside a section: INI cannot express it *)
  let nest =
    Scenario.make ~id:"nest" ~class_name:"test/nest" ~description:"nest sections"
      (Scenario.edit_in_file ~file:"my.cnf" (fun tree ->
           Node.append_child tree ~parent:[ 0 ] (Node.section "inner" [])))
  in
  match Engine.parse_default_config Suts.Mini_mysql.sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    (match Engine.run_scenario ~sut:Suts.Mini_mysql.sut ~base nest with
     | Outcome.Not_applicable msg ->
       Alcotest.(check bool) "mentions nesting" true
         (Conferr_util.Strutil.contains_substring ~needle:"nested" msg)
     | o -> Alcotest.failf "expected N/A, got %s" (Outcome.label o))

let run_ok ~sut ~scenarios =
  match Engine.parse_default_config sut with
  | Ok base -> Engine.run_from ~sut ~base ~scenarios ()
  | Error msg -> Alcotest.fail msg

let test_run_builds_profile () =
  let scenarios = [ noop_scenario; failing_scenario; break_port_scenario ] in
  let profile = run_ok ~sut:Suts.Mini_pg.sut ~scenarios in
  let summary = Conferr.Profile.summarize profile in
  Alcotest.(check int) "applicable" 2 summary.Conferr.Profile.total;
  Alcotest.(check int) "startup" 1 summary.Conferr.Profile.startup;
  Alcotest.(check int) "ignored" 1 summary.Conferr.Profile.ignored;
  Alcotest.(check int) "n/a" 1 summary.Conferr.Profile.not_applicable

let test_cross_file_scenario () =
  (* paper §3.1: transformations apply to the whole set of configuration
     files, enabling cross-file errors — here a record pasted from the
     forward zone file into the reverse one *)
  let sut = Suts.Mini_bind.sut in
  match Engine.parse_default_config sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    let scenarios =
      Errgen.Template.move ~class_name:"structural/cross-file"
        ~src:
          (Errgen.Template.target ~file:Suts.Mini_bind.forward_zone_file
             "//*[kind()='record' and @type='MX']")
        ~dst:
          (Errgen.Template.target ~file:Suts.Mini_bind.reverse_zone_file
             "/.")
        base
    in
    Alcotest.(check bool) "cross-file scenarios generated" true (scenarios <> []);
    List.iter
      (fun (s : Scenario.t) ->
        match s.apply base with
        | Ok mutated ->
          let count file =
            match Conftree.Config_set.find mutated file with
            | Some t ->
              List.length
                (Node.find_all
                   (fun n ->
                     n.Node.kind = Node.kind_record
                     && Node.attr n "type" = Some "MX")
                   t)
            | None -> -1
          in
          Alcotest.(check int) "left the forward zone" 0
            (count Suts.Mini_bind.forward_zone_file);
          Alcotest.(check int) "arrived in the reverse zone" 1
            (count Suts.Mini_bind.reverse_zone_file);
          (* and the engine can run it end to end *)
          ignore (Engine.run_scenario ~sut ~base s)
        | Error msg -> Alcotest.fail msg)
      scenarios

let test_outcome_helpers () =
  Alcotest.(check bool) "startup detected" true (Outcome.detected (Outcome.Startup_failure "x"));
  Alcotest.(check bool) "functional detected" true (Outcome.detected (Outcome.Test_failure [ "t" ]));
  Alcotest.(check bool) "passed not detected" false (Outcome.detected Outcome.Passed);
  Alcotest.(check bool) "na not detected" false (Outcome.detected (Outcome.Not_applicable "m"));
  Alcotest.(check string) "labels" "ignored" (Outcome.label Outcome.Passed)

let test_profile_rendering () =
  let profile = run_ok ~sut:Suts.Mini_pg.sut ~scenarios:[ break_port_scenario ] in
  let text = Conferr.Profile.render profile in
  Alcotest.(check bool) "mentions the SUT" true
    (Conferr_util.Strutil.contains_substring ~needle:"postgres" text);
  let entries = Conferr.Profile.render_entries profile in
  Alcotest.(check bool) "lists the scenario" true
    (Conferr_util.Strutil.contains_substring ~needle:"typo in port" entries)

let test_profile_class_filter () =
  let scenarios = [ noop_scenario; break_port_scenario ] in
  let profile = run_ok ~sut:Suts.Mini_pg.sut ~scenarios in
  (* one row per class, in first-appearance order, each counting only
     its own entries *)
  let rows =
    String.split_on_char '\n' (Conferr.Profile.render profile)
    |> List.filter_map (fun line ->
           match List.filter (( <> ) "") (String.split_on_char ' ' line) with
           | cls :: applicable :: _ when String.length cls > 5 && String.sub cls 0 5 = "test/" ->
             Some (cls, applicable)
           | _ -> None)
  in
  Alcotest.(check (list (pair string string)))
    "class rows"
    [ ("test/noop", "1"); ("test/port", "1") ]
    rows

let test_detection_rate () =
  let s =
    { Conferr.Profile.total = 4; startup = 2; functional = 1; ignored = 1;
      crashed = 0; not_applicable = 3 }
  in
  Alcotest.(check bool) "3/4" true (abs_float (Conferr.Profile.detection_rate s -. 0.75) < 1e-9)

(* Failure injection on the harness itself: SUTs that crash must be
   classified, not kill the campaign. *)
let crashing_sut stage =
  {
    Suts.Sut.sut_name = "crasher";
    version = "crasher 0.1";
    config_files = [ ("crash.conf", Formats.Registry.pgconf) ];
    default_config = [ ("crash.conf", "x = 1\n") ];
    boot =
      (fun _ ->
        if stage = `Boot then failwith "segfault during startup"
        else
          Ok
            {
              Suts.Sut.run_tests =
                (fun () ->
                  if stage = `Tests then failwith "segfault under load"
                  else [ Suts.Sut.passed "noop" ]);
              shutdown = (fun () -> ());
            });
  }

let test_crash_during_boot_classified () =
  let sut = crashing_sut `Boot in
  match Engine.parse_default_config sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    (match Engine.run_scenario ~sut ~base noop_scenario with
     | Outcome.Crashed { cause = Outcome.Uncaught msg; phase = Outcome.Boot; _ } ->
       Alcotest.(check bool) "names the exception" true
         (Conferr_util.Strutil.contains_substring ~needle:"segfault" msg)
     | o -> Alcotest.failf "expected a boot crash, got %s" (Outcome.label o))

let test_crash_during_tests_classified () =
  let sut = crashing_sut `Tests in
  match Engine.parse_default_config sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    (match Engine.run_scenario ~sut ~base noop_scenario with
     | Outcome.Crashed { cause = Outcome.Uncaught msg; phase = Outcome.Test; _ } ->
       Alcotest.(check bool) "names the exception" true
         (Conferr_util.Strutil.contains_substring ~needle:"segfault" msg)
     | o -> Alcotest.failf "expected a test crash, got %s" (Outcome.label o))

let test_raising_scenario_classified () =
  let bomb =
    Errgen.Scenario.make ~id:"bomb" ~class_name:"test/bomb" ~description:"raises"
      (fun _ -> failwith "plugin bug")
  in
  match Engine.run_scenario ~sut:Suts.Mini_pg.sut ~base:(pg_base ()) bomb with
  | Outcome.Not_applicable msg ->
    Alcotest.(check bool) "reports the exception" true
      (Conferr_util.Strutil.contains_substring ~needle:"raised" msg)
  | o -> Alcotest.failf "expected N/A, got %s" (Outcome.label o)

let test_bad_default_config_reported () =
  (* a SUT whose own default config does not parse is a harness bug: it
     must surface as a structured error, not an exception *)
  let sut =
    {
      (crashing_sut `Boot) with
      Suts.Sut.sut_name = "misdeclared";
      (* no content for the declared file: parsing cannot succeed *)
      default_config = [];
    }
  in
  match
    Conferr_adapt.Explore.run ~sut
      ~stream:(fun _ -> Alcotest.fail "stream built over an unparsed base")
      ()
  with
  | Ok _ -> Alcotest.fail "expected a config error"
  | Error e ->
    Alcotest.(check string) "names the SUT" "misdeclared" e.Engine.sut_name;
    Alcotest.(check bool) "explains the failure" true
      (String.length (Engine.config_error_to_string e) > 0)

let test_run_from_parallel_matches_sequential () =
  let scenarios = [ noop_scenario; failing_scenario; break_port_scenario ] in
  let base = pg_base () in
  let seq = Engine.run_from ~sut:Suts.Mini_pg.sut ~base ~scenarios () in
  let par, _ =
    Conferr_exec.Executor.run_from
      ~settings:{ Conferr_exec.Executor.default_settings with jobs = 4 }
      ~on_event:(fun _ -> ())
      ~sut:Suts.Mini_pg.sut ~base ~scenarios ()
  in
  Alcotest.(check string) "identical rendering"
    (Conferr.Profile.render seq) (Conferr.Profile.render par);
  Alcotest.(check (list string)) "identical entry order"
    (List.map (fun (e : Conferr.Profile.entry) -> e.scenario_id) seq.entries)
    (List.map (fun (e : Conferr.Profile.entry) -> e.scenario_id) par.entries)

let suite =
  [
    Alcotest.test_case "baselines green" `Quick test_baselines;
    Alcotest.test_case "bad default config reported" `Quick
      test_bad_default_config_reported;
    Alcotest.test_case "parallel run_from matches sequential" `Quick
      test_run_from_parallel_matches_sequential;
    Alcotest.test_case "crash during boot" `Quick test_crash_during_boot_classified;
    Alcotest.test_case "crash during tests" `Quick test_crash_during_tests_classified;
    Alcotest.test_case "raising scenario" `Quick test_raising_scenario_classified;
    Alcotest.test_case "parse/serialize roundtrip" `Quick test_parse_serialize_roundtrip;
    Alcotest.test_case "scenario passed" `Quick test_run_scenario_passed;
    Alcotest.test_case "scenario n/a" `Quick test_run_scenario_not_applicable;
    Alcotest.test_case "scenario startup failure" `Quick test_run_scenario_startup_failure;
    Alcotest.test_case "serialization n/a" `Quick test_serialization_failure_is_na;
    Alcotest.test_case "run builds profile" `Quick test_run_builds_profile;
    Alcotest.test_case "cross-file scenario" `Quick test_cross_file_scenario;
    Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
    Alcotest.test_case "profile rendering" `Quick test_profile_rendering;
    Alcotest.test_case "profile class filter" `Quick test_profile_class_filter;
    Alcotest.test_case "detection rate" `Quick test_detection_rate;
  ]
