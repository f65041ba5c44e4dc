(* Tests for the BIND simulator: zone-load consistency checks and the
   liveness functional tests (paper §5.4 / Table 3). *)

module B = Suts.Mini_bind
module Sut = Suts.Sut

let default_configs = B.sut.Sut.default_config

let named = List.assoc "named.conf" default_configs

let fwd = List.assoc B.forward_zone_file default_configs

let rev = List.assoc B.reverse_zone_file default_configs

let boot ?(named = named) ?(fwd = fwd) ?(rev = rev) () =
  B.sut.Sut.boot
    [ ("named.conf", named); (B.forward_zone_file, fwd); (B.reverse_zone_file, rev) ]

let boot_ok ?named ?fwd ?rev () =
  match boot ?named ?fwd ?rev () with
  | Ok instance -> instance
  | Error msg -> Alcotest.failf "expected zones to load: %s" msg

let boot_err ?named ?fwd ?rev () =
  match boot ?named ?fwd ?rev () with
  | Ok _ -> Alcotest.fail "expected zone load failure"
  | Error msg -> msg

let tests_pass instance = List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Sut.run_tests ())

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

let test_default_zones_load () =
  Alcotest.(check bool) "forward and reverse answer" true (tests_pass (boot_ok ()))

let test_missing_ptr_not_detected () =
  (* Table 3 row 1: BIND loads fine and the liveness tests pass *)
  let rev' =
    Conferr_util.Strutil.lines rev
    |> List.filter (fun l -> not (contains "www.example.com." l))
    |> Conferr_util.Strutil.unlines
  in
  Alcotest.(check bool) "undetected" true (tests_pass (boot_ok ~rev:rev' ()))

let test_ptr_to_cname_not_detected () =
  (* Table 3 row 2 *)
  let rev' =
    Conferr_util.Strutil.lines rev
    |> List.map (fun l ->
           if contains "2\tIN\tPTR" l then "2\tIN\tPTR\tftp.example.com." else l)
    |> Conferr_util.Strutil.unlines
  in
  Alcotest.(check bool) "undetected" true (tests_pass (boot_ok ~rev:rev' ()))

let test_cname_collision_detected () =
  (* Table 3 row 3: CNAME at a name owning NS data refuses the zone *)
  let fwd' = fwd ^ "@\tIN\tCNAME\twww.example.com.\n" in
  let msg = boot_err ~fwd:fwd' () in
  Alcotest.(check bool) "refused with reason" true (contains "CNAME" msg)

let test_mx_to_cname_detected () =
  (* Table 3 row 4 *)
  let fwd' =
    Conferr_util.Strutil.lines fwd
    |> List.map (fun l ->
           if contains "MX" l then "@\tIN\tMX\t10 ftp.example.com." else l)
    |> Conferr_util.Strutil.unlines
  in
  let msg = boot_err ~fwd:fwd' () in
  Alcotest.(check bool) "alias named" true (contains "alias" msg)

let test_zone_without_soa_refused () =
  let fwd' =
    Conferr_util.Strutil.lines fwd
    |> List.filter (fun l -> not (contains "SOA" l))
    |> Conferr_util.Strutil.unlines
  in
  let msg = boot_err ~fwd:fwd' () in
  Alcotest.(check bool) "missing SOA" true (contains "SOA" msg)

let test_parse_error_reported () =
  let msg = boot_err ~fwd:"www IN NONSENSE data\n" () in
  Alcotest.(check bool) "dns_master_load" true (contains "dns_master_load" msg)

let test_missing_zone_file () =
  match B.sut.Sut.boot [ ("named.conf", named); (B.forward_zone_file, fwd) ] with
  | Error msg -> Alcotest.(check bool) "reports file" true (contains "not found" msg)
  | Ok _ -> Alcotest.fail "must not boot"

let test_forward_liveness_fails_without_zone_data () =
  (* an empty forward zone (SOA only removed -> refused) vs deleting all
     records: delete everything except directives *)
  let fwd' = "$TTL 86400\n" in
  let msg = boot_err ~fwd:fwd' () in
  Alcotest.(check bool) "refused (no SOA)" true (contains "SOA" msg)

let test_zones_mapping () =
  Alcotest.(check int) "two zones" 2 (List.length B.zones);
  Alcotest.(check (option string)) "forward origin" (Some B.forward_origin)
    (List.assoc_opt B.forward_zone_file B.zones)

let test_named_conf_zone_name_typo_functional () =
  (* zone served under a misspelled origin: the daemon starts but the
     admin's queries for example.com go unanswered *)
  let named' =
    Conferr_util.Strutil.lines named
    |> List.map (fun l ->
           if contains "zone \"example.com\"" l then "zone \"examplle.com\" IN {"
           else l)
    |> Conferr_util.Strutil.unlines
  in
  let instance = boot_ok ~named:named' () in
  Alcotest.(check bool) "functional failure" false (tests_pass instance)

let test_named_conf_file_typo_startup () =
  let named' =
    Conferr_util.Strutil.lines named
    |> List.map (fun l ->
           if contains "file \"example.com.zone\"" l then "  file \"example.con.zone\";"
           else l)
    |> Conferr_util.Strutil.unlines
  in
  let msg = boot_err ~named:named' () in
  Alcotest.(check bool) "file not found" true (contains "not found" msg)

let test_named_conf_unknown_option () =
  let named' =
    Conferr_util.Strutil.lines named
    |> List.map (fun l -> if contains "recursion" l then "  recursoin no;" else l)
    |> Conferr_util.Strutil.unlines
  in
  let msg = boot_err ~named:named' () in
  Alcotest.(check bool) "unknown option" true (contains "unknown option" msg)

let test_named_conf_bad_zone_type () =
  let named' =
    Conferr_util.Strutil.lines named
    |> List.map (fun l -> if contains "type master" l then "  type mastre;" else l)
    |> Conferr_util.Strutil.unlines
  in
  let msg = boot_err ~named:named' () in
  Alcotest.(check bool) "unknown type" true (contains "unknown type" msg)

let test_named_conf_missing_directory () =
  let named' =
    Conferr_util.Strutil.lines named
    |> List.map (fun l ->
           if contains "directory" l then "  directory \"/var/namde\";" else l)
    |> Conferr_util.Strutil.unlines
  in
  let msg = boot_err ~named:named' () in
  Alcotest.(check bool) "directory not found" true (contains "not found" msg)

let suite =
  [
    Alcotest.test_case "default zones load" `Quick test_default_zones_load;
    Alcotest.test_case "missing PTR undetected" `Quick test_missing_ptr_not_detected;
    Alcotest.test_case "PTR to CNAME undetected" `Quick test_ptr_to_cname_not_detected;
    Alcotest.test_case "CNAME collision detected" `Quick test_cname_collision_detected;
    Alcotest.test_case "MX to alias detected" `Quick test_mx_to_cname_detected;
    Alcotest.test_case "zone without SOA" `Quick test_zone_without_soa_refused;
    Alcotest.test_case "parse error" `Quick test_parse_error_reported;
    Alcotest.test_case "missing zone file" `Quick test_missing_zone_file;
    Alcotest.test_case "empty zone refused" `Quick
      test_forward_liveness_fails_without_zone_data;
    Alcotest.test_case "zones mapping" `Quick test_zones_mapping;
    Alcotest.test_case "named.conf zone-name typo" `Quick
      test_named_conf_zone_name_typo_functional;
    Alcotest.test_case "named.conf file typo" `Quick test_named_conf_file_typo_startup;
    Alcotest.test_case "named.conf unknown option" `Quick test_named_conf_unknown_option;
    Alcotest.test_case "named.conf bad zone type" `Quick test_named_conf_bad_zone_type;
    Alcotest.test_case "named.conf missing directory" `Quick
      test_named_conf_missing_directory;
  ]
