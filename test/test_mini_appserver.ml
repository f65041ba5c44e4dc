(* Tests for the XML application-server simulator: strict attribute
   validation, the silent unknown-element flaw, functional port check. *)

module A = Suts.Mini_appserver
module Sut = Suts.Sut

let default_text = List.assoc "server.xml" A.sut.Sut.default_config

let boot text = A.sut.Sut.boot [ ("server.xml", text) ]

let boot_ok text =
  match boot text with
  | Ok instance -> instance
  | Error msg -> Alcotest.failf "expected startup, got: %s" msg

let boot_err text =
  match boot text with
  | Ok _ -> Alcotest.fail "expected startup failure"
  | Error msg -> msg

let tests_pass instance = List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Sut.run_tests ())

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

let replace a b text =
  Conferr_util.Strutil.lines text
  |> List.map (fun l ->
         if Conferr_util.Strutil.contains_substring ~needle:a l then b else l)
  |> Conferr_util.Strutil.unlines

let test_default_boots () =
  Alcotest.(check bool) "GET passes" true (tests_pass (boot_ok default_text))

let test_unknown_element_silently_skipped () =
  (* the XML-config flaw: a typo in an element name removes the subtree
     without any diagnostic *)
  let mutated =
    replace "<logger" "  <loger level=\"info\" file=\"/var/log/appserver/server.log\"/>"
      default_text
  in
  Alcotest.(check bool) "still boots and passes" true (tests_pass (boot_ok mutated))

let test_typoed_connector_element_breaks_functionally () =
  (* typo the http connector's element name: the element vanishes, so
     port 8080 is never opened — caught only by the GET *)
  let mutated =
    replace "protocol=\"http\" port=\"8080\""
      "  <conector protocol=\"http\" port=\"8080\"/>" default_text
  in
  let instance = boot_ok mutated in
  Alcotest.(check bool) "functional failure" false (tests_pass instance)

let test_unknown_attribute_rejected () =
  let mutated =
    replace "protocol=\"http\" port=\"8080\""
      "  <connector protocol=\"http\" prot=\"8080\"/>" default_text
  in
  let msg = boot_err mutated in
  Alcotest.(check bool) "attribute error" true (contains "attribute" msg)

let test_invalid_port_rejected () =
  let mutated =
    replace "port=\"8080\"" "  <connector protocol=\"http\" port=\"8o80\"/>" default_text
  in
  let msg = boot_err mutated in
  Alcotest.(check bool) "port error" true (contains "port" msg)

let test_port_typo_functional () =
  let mutated =
    replace "port=\"8080\"" "  <connector protocol=\"http\" port=\"8081\"/>" default_text
  in
  Alcotest.(check bool) "survives startup, fails GET" false
    (tests_pass (boot_ok mutated))

let test_unknown_protocol_rejected () =
  let mutated =
    replace "protocol=\"http\" port=\"8080\""
      "  <connector protocol=\"htp\" port=\"8080\"/>" default_text
  in
  ignore (boot_err mutated)

let test_unknown_level_rejected () =
  let mutated = replace "level=\"info\"" "  <logger level=\"inof\"/>" default_text in
  ignore (boot_err mutated)

let test_log_dir_checked () =
  let mutated =
    replace "<logger" "  <logger level=\"info\" file=\"/var/lgo/appserver/s.log\"/>"
      default_text
  in
  ignore (boot_err mutated)

let test_realm_file_checked () =
  let mutated =
    replace "<realm" "    <realm users=\"/etc/appserver/userz.xml\"/>" default_text
  in
  ignore (boot_err mutated)

let test_appbase_typo_functional () =
  let mutated = replace "appBase=\"/srv/webapps\""
      "  <host name=\"localhost\" appBase=\"/srv/webapp\" defaultApp=\"root\">"
      default_text
  in
  Alcotest.(check bool) "404" false (tests_pass (boot_ok mutated))

let test_malformed_xml_rejected () =
  let msg = boot_err "<server><connector port=\"8080\"</server>" in
  Alcotest.(check bool) "parse error" true (contains "XML" msg)

let test_no_connectors_rejected () =
  let msg = boot_err "<server name=\"x\"></server>" in
  Alcotest.(check bool) "no connectors" true (contains "connector" msg)

let test_engine_integration () =
  let noop =
    Errgen.Scenario.make ~id:"noop" ~class_name:"test/noop"
      ~description:"no change" (fun set -> Ok set)
  in
  match Conferr.Engine.parse_default_config A.sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    match Conferr.Engine.run_scenario ~sut:A.sut ~base noop with
    | Conferr.Outcome.Passed -> ()
    | o -> Alcotest.failf "stock configuration: %s" (Conferr.Outcome.label o)

let test_typo_campaign_runs () =
  (* the generic campaign machinery works on the XML format too *)
  let rng = Conferr_util.Rng.create 5 in
  match Conferr.Engine.parse_default_config A.sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    (* XML trees carry values in attributes, so the typo campaign's
       directive-oriented sampler finds no targets; the structural
       plugin drives element-level faults instead *)
    let scenarios =
      Errgen.Template.delete ~class_name:"structural/omit-element"
        (Errgen.Template.target ~file:"server.xml" "//*[kind()='element']")
      base
      |> Errgen.Template.sample rng 10
    in
    Alcotest.(check bool) "scenarios exist" true (scenarios <> []);
    let profile = Conferr.Engine.run_from ~sut:A.sut ~base ~scenarios () in
    let s = Conferr.Profile.summarize profile in
    Alcotest.(check bool) "ran" true (s.Conferr.Profile.total > 0)

let suite =
  [
    Alcotest.test_case "default boots" `Quick test_default_boots;
    Alcotest.test_case "unknown element skipped (flaw)" `Quick
      test_unknown_element_silently_skipped;
    Alcotest.test_case "typoed connector functional" `Quick
      test_typoed_connector_element_breaks_functionally;
    Alcotest.test_case "unknown attribute" `Quick test_unknown_attribute_rejected;
    Alcotest.test_case "invalid port" `Quick test_invalid_port_rejected;
    Alcotest.test_case "port typo functional" `Quick test_port_typo_functional;
    Alcotest.test_case "unknown protocol" `Quick test_unknown_protocol_rejected;
    Alcotest.test_case "unknown level" `Quick test_unknown_level_rejected;
    Alcotest.test_case "log dir checked" `Quick test_log_dir_checked;
    Alcotest.test_case "realm file checked" `Quick test_realm_file_checked;
    Alcotest.test_case "appBase typo functional" `Quick test_appbase_typo_functional;
    Alcotest.test_case "malformed xml" `Quick test_malformed_xml_rejected;
    Alcotest.test_case "no connectors" `Quick test_no_connectors_rejected;
    Alcotest.test_case "engine baseline" `Quick test_engine_integration;
    Alcotest.test_case "structural campaign" `Quick test_typo_campaign_runs;
  ]
