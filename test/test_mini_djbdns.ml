(* Tests for the djbdns simulator: syntax-only checking, no referential
   consistency (paper §5.4 / Table 3). *)

module D = Suts.Mini_djbdns
module Sut = Suts.Sut

let data = List.assoc D.data_file D.sut.Sut.default_config

let boot text = D.sut.Sut.boot [ (D.data_file, text) ]

let boot_ok text =
  match boot text with
  | Ok instance -> instance
  | Error msg -> Alcotest.failf "expected tinydns-data to compile: %s" msg

let boot_err text =
  match boot text with
  | Ok _ -> Alcotest.fail "expected a compile failure"
  | Error msg -> msg

let tests_pass instance = List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Sut.run_tests ())

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

let test_default_data_compiles () =
  Alcotest.(check bool) "both zones answer" true (tests_pass (boot_ok data))

let test_no_consistency_checks () =
  (* CNAME colliding with the NS owner and an MX to an alias both pass:
     tinydns-data checks syntax only (Table 3 rows 3-4: "not found") *)
  let polluted =
    data ^ "Cexample.com:www.example.com\n"
    ^ "@example.com::ftp.example.com:20\n"
  in
  Alcotest.(check bool) "undetected" true (tests_pass (boot_ok polluted))

let test_bad_ip_rejected () =
  let msg = boot_err "=www.example.com:10.0.0\n" in
  Alcotest.(check bool) "IPv4 check" true (contains "IPv4" msg)

let test_unknown_operator_rejected () =
  let msg = boot_err "?www.example.com:10.0.0.1\n" in
  Alcotest.(check bool) "syntax error" true (contains "tinydns-data" msg)

let test_equals_defines_both_mappings () =
  let instance = boot_ok data in
  (* the functional suite covers liveness; check A+PTR via a dedicated
     resolver built the same way *)
  ignore instance;
  match Formats.Tinydns.parse data with
  | Error _ -> Alcotest.fail "parse"
  | Ok tree ->
    let set = Conftree.Config_set.of_list [ (D.data_file, tree) ] in
    let codec = Dnsmodel.Codec.tinydns ~file:D.data_file in
    (match codec.Dnsmodel.Codec.decode set with
     | Error msg -> Alcotest.fail msg
     | Ok records ->
       let zones =
         [
           Dnsmodel.Zone.make ~origin:"example.com." records;
           Dnsmodel.Zone.make ~origin:"0.0.10.in-addr.arpa."
             (List.filter
                (fun (r : Dnsmodel.Record.t) ->
                  Dnsmodel.Name.in_domain ~domain:"0.0.10.in-addr.arpa." r.owner)
                records);
         ]
       in
       let resolver = Dnsmodel.Resolver.create zones in
       Alcotest.(check (list string)) "forward" [ "10.0.0.2" ]
         (Test_resolver.lookup_a resolver "www.example.com");
       Alcotest.(check (list string)) "reverse" [ "www.example.com." ]
         (Test_resolver.lookup_ptr resolver ~ip:"10.0.0.2"))

let test_missing_data_file () =
  match D.sut.Sut.boot [] with
  | Error msg -> Alcotest.(check bool) "reports" true (contains "data" msg)
  | Ok _ -> Alcotest.fail "must not boot"

let test_empty_data_fails_liveness () =
  let instance = boot_ok "# nothing here\n" in
  Alcotest.(check bool) "no zones answer" false (tests_pass instance)

let suite =
  [
    Alcotest.test_case "default compiles" `Quick test_default_data_compiles;
    Alcotest.test_case "no consistency checks" `Quick test_no_consistency_checks;
    Alcotest.test_case "bad IP rejected" `Quick test_bad_ip_rejected;
    Alcotest.test_case "unknown operator" `Quick test_unknown_operator_rejected;
    Alcotest.test_case "= defines A and PTR" `Quick test_equals_defines_both_mappings;
    Alcotest.test_case "missing data file" `Quick test_missing_data_file;
    Alcotest.test_case "empty data" `Quick test_empty_data_fails_liveness;
  ]
