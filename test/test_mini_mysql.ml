(* White-box tests for the MySQL simulator's paper-documented quirks
   (§5.2) and Table 2 behaviours. *)

module M = Suts.Mini_mysql
module Sut = Suts.Sut

let boot config = M.sut.Sut.boot [ ("my.cnf", config) ]

let boot_ok config =
  match boot config with
  | Ok instance -> instance
  | Error msg -> Alcotest.failf "expected successful startup, got: %s" msg

let boot_err config =
  match boot config with
  | Ok _ -> Alcotest.fail "expected startup failure"
  | Error msg -> msg

let tests_pass instance = List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Sut.run_tests ())

let default_text = List.assoc "my.cnf" M.sut.Sut.default_config

(* --- value parsing quirks --- *)

let parsed = Alcotest.testable (fun fmt -> function
    | M.Accepted v -> Format.fprintf fmt "Accepted %Ld" v
    | M.Defaulted -> Format.pp_print_string fmt "Defaulted"
    | M.Rejected m -> Format.fprintf fmt "Rejected %s" m)
  (fun a b ->
    match (a, b) with
    | M.Accepted x, M.Accepted y -> x = y
    | M.Defaulted, M.Defaulted -> true
    | M.Rejected _, M.Rejected _ -> true
    | _, _ -> false)

let size v = M.parse_size ~default:100L ~min:8L ~max:1073741824L v

let test_size_plain () =
  Alcotest.check parsed "plain number" (M.Accepted 64L) (size "64")

let test_size_suffixes () =
  Alcotest.check parsed "K" (M.Accepted 16384L) (size "16K");
  Alcotest.check parsed "M" (M.Accepted 16777216L) (size "16M");
  Alcotest.check parsed "lowercase m" (M.Accepted 1048576L) (size "1m");
  Alcotest.check parsed "G" (M.Accepted 1073741824L) (size "1G")

let test_size_stops_at_first_multiplier () =
  (* the paper's "1M0" flaw: accepted as 1M, trailing junk ignored *)
  Alcotest.check parsed "1M0" (M.Accepted 1048576L) (size "1M0");
  Alcotest.check parsed "16Mxyz" (M.Accepted 16777216L) (size "16Mxyz")

let test_size_leading_multiplier_defaulted () =
  (* values that start with a multiplier are silently ignored *)
  Alcotest.check parsed "M10" M.Defaulted (size "M10");
  Alcotest.check parsed "G" M.Defaulted (size "G")

let test_size_out_of_bounds_silently_defaulted () =
  (* key_buffer_size=1 accepted and ignored although min is 8 *)
  Alcotest.check parsed "below min" M.Defaulted (size "1");
  Alcotest.check parsed "above max" M.Defaulted (size "999999999999")

let test_size_empty_defaulted () = Alcotest.check parsed "no value" M.Defaulted (size "")

let test_size_garbage_rejected () =
  Alcotest.check parsed "letters" (M.Rejected "") (size "abc");
  Alcotest.check parsed "junk after digits" (M.Rejected "") (size "12x3");
  Alcotest.check parsed "leading symbol" (M.Rejected "") (size "!2")

let test_int_strict () =
  let int v = M.parse_int ~default:100L ~min:1L ~max:65535L v in
  Alcotest.check parsed "ok" (M.Accepted 3306L) (int "3306");
  Alcotest.check parsed "no suffix allowed" (M.Rejected "") (int "1K");
  Alcotest.check parsed "out of range defaulted" M.Defaulted (int "99999999");
  Alcotest.check parsed "empty defaulted" M.Defaulted (int "")

(* --- name resolution --- *)

let test_resolve_exact () =
  Alcotest.(check bool) "known" true (M.resolve_name "port" = `Known "port")

let test_resolve_dash_underscore () =
  Alcotest.(check bool) "dashes fold" true
    (M.resolve_name "key-buffer-size" = `Known "key_buffer_size")

let test_resolve_truncated () =
  Alcotest.(check bool) "unambiguous prefix" true
    (M.resolve_name "key_buf" = `Known "key_buffer_size");
  Alcotest.(check bool) "single char" true (M.resolve_name "d" = `Known "datadir")

let test_resolve_ambiguous () =
  Alcotest.(check bool) "max_ is ambiguous" true (M.resolve_name "max_" = `Ambiguous)

let test_resolve_unknown () =
  Alcotest.(check bool) "unknown" true (M.resolve_name "not_a_variable" = `Unknown);
  Alcotest.(check bool) "case-sensitive" true (M.resolve_name "Port" = `Unknown)

(* --- startup behaviour --- *)

let test_default_config_boots_and_passes () =
  Alcotest.(check bool) "functional tests pass" true (tests_pass (boot_ok default_text))

let test_unknown_variable_in_mysqld_rejected () =
  let msg = boot_err "[mysqld]\nprot = 3306\n" in
  Alcotest.(check bool) "unknown variable" true
    (Conferr_util.Strutil.contains_substring ~needle:"unknown variable" msg)

let test_shared_file_sections_latent () =
  (* errors in [mysqldump] / [client] are not seen at daemon startup *)
  let config = M.shared_tools_config ^ "[mysqldump]\nnot_a_real_option = 1\n" in
  Alcotest.(check bool) "daemon starts" true (tests_pass (boot_ok config))

let test_client_section_latent () =
  let config = default_text ^ "[client]\nmisspelled_option = x\n" in
  Alcotest.(check bool) "daemon starts" true (tests_pass (boot_ok config))

let test_shared_tools_config_boots () =
  Alcotest.(check bool) "shipped shared config works" true
    (tests_pass (boot_ok M.shared_tools_config))

let test_bad_bool_rejected () =
  let msg = boot_err "[mysqld]\nold_passwords = maybe\n" in
  Alcotest.(check bool) "boolean error" true
    (Conferr_util.Strutil.contains_substring ~needle:"boolean" msg)

let test_flag_accepts_spurious_value () =
  Alcotest.(check bool) "flag with value accepted" true
    (tests_pass (boot_ok "[mysqld]\nskip_external_locking = banana\n"))

let test_datadir_must_exist () =
  let msg = boot_err "[mysqld]\ndatadir = /var/lib/mysqll\n" in
  Alcotest.(check bool) "errcode 2" true
    (Conferr_util.Strutil.contains_substring ~needle:"Errcode: 2" msg)

let test_socket_must_be_absolute () =
  ignore (boot_err "[mysqld]\nsocket = relative/path.sock\n");
  Alcotest.(check bool) "absolute ok" true
    (tests_pass (boot_ok "[mysqld]\nsocket = /anywhere/at/all.sock\n"))

let test_port_typo_caught_by_functional_tests () =
  (* a digit typo keeps the value numeric: startup accepts it, the
     diagnosis script cannot connect *)
  let instance = boot_ok "[mysqld]\nport = 3307\n" in
  Alcotest.(check bool) "functional failure" false (tests_pass instance)

let test_invalid_port_rejected_at_startup () =
  ignore (boot_err "[mysqld]\nport = 33o6\n")

let test_out_of_bounds_silently_ignored_end_to_end () =
  (* the paper's key_buffer_size=1 example, through the whole stack *)
  Alcotest.(check bool) "accepted and ignored" true
    (tests_pass (boot_ok "[mysqld]\nkey_buffer_size = 1\n"))

let test_duplicate_directive_last_wins () =
  let instance = boot_ok "[mysqld]\nport = 3307\nport = 3306\n" in
  Alcotest.(check bool) "second value used" true (tests_pass instance)

let test_mixed_case_rejected () =
  ignore (boot_err "[mysqld]\nPort = 3306\n")

let test_truncated_names_accepted_end_to_end () =
  Alcotest.(check bool) "truncated names boot" true
    (tests_pass (boot_ok "[mysqld]\npo = 3306\nkey_buf = 16M\n"))

let test_mysqldump_surfaces_latent_errors () =
  (* the daemon boots, but the tool's next run hits the typo *)
  let config = M.shared_tools_config ^ "[mysqldump]\nquikc\n" in
  Alcotest.(check bool) "daemon unaffected" true (tests_pass (boot_ok config));
  (match M.run_mysqldump config with
   | Error msg ->
     Alcotest.(check bool) "mysqldump reports" true
       (Conferr_util.Strutil.contains_substring ~needle:"unknown option" msg)
   | Ok () -> Alcotest.fail "mysqldump must hit the latent typo");
  (* clean shared config: the tool runs fine *)
  Alcotest.(check bool) "clean run" true (Result.is_ok (M.run_mysqldump M.shared_tools_config))

let test_orphan_option_rejected () =
  let msg = boot_err "port = 3306\n[mysqld]\nmax_connections = 100\n" in
  Alcotest.(check bool) "without preceding group" true
    (Conferr_util.Strutil.contains_substring ~needle:"without preceding group" msg)

let test_missing_file () =
  match M.sut.Sut.boot [] with
  | Error msg ->
    Alcotest.(check bool) "reports missing file" true
      (Conferr_util.Strutil.contains_substring ~needle:"my.cnf" msg)
  | Ok _ -> Alcotest.fail "must not boot without a config"

let suite =
  [
    Alcotest.test_case "size plain" `Quick test_size_plain;
    Alcotest.test_case "size suffixes" `Quick test_size_suffixes;
    Alcotest.test_case "size stops at first multiplier (1M0)" `Quick
      test_size_stops_at_first_multiplier;
    Alcotest.test_case "size leading multiplier defaulted" `Quick
      test_size_leading_multiplier_defaulted;
    Alcotest.test_case "size out-of-bounds silent" `Quick
      test_size_out_of_bounds_silently_defaulted;
    Alcotest.test_case "size empty defaulted" `Quick test_size_empty_defaulted;
    Alcotest.test_case "size garbage rejected" `Quick test_size_garbage_rejected;
    Alcotest.test_case "int strict" `Quick test_int_strict;
    Alcotest.test_case "resolve exact" `Quick test_resolve_exact;
    Alcotest.test_case "resolve dash/underscore" `Quick test_resolve_dash_underscore;
    Alcotest.test_case "resolve truncated" `Quick test_resolve_truncated;
    Alcotest.test_case "resolve ambiguous" `Quick test_resolve_ambiguous;
    Alcotest.test_case "resolve unknown + case" `Quick test_resolve_unknown;
    Alcotest.test_case "default config boots" `Quick test_default_config_boots_and_passes;
    Alcotest.test_case "unknown variable rejected" `Quick
      test_unknown_variable_in_mysqld_rejected;
    Alcotest.test_case "tool sections latent" `Quick test_shared_file_sections_latent;
    Alcotest.test_case "client section latent" `Quick test_client_section_latent;
    Alcotest.test_case "shared tools config boots" `Quick test_shared_tools_config_boots;
    Alcotest.test_case "bad bool rejected" `Quick test_bad_bool_rejected;
    Alcotest.test_case "flag spurious value" `Quick test_flag_accepts_spurious_value;
    Alcotest.test_case "datadir must exist" `Quick test_datadir_must_exist;
    Alcotest.test_case "socket absolute" `Quick test_socket_must_be_absolute;
    Alcotest.test_case "port typo functional" `Quick
      test_port_typo_caught_by_functional_tests;
    Alcotest.test_case "invalid port startup" `Quick test_invalid_port_rejected_at_startup;
    Alcotest.test_case "oob ignored end-to-end" `Quick
      test_out_of_bounds_silently_ignored_end_to_end;
    Alcotest.test_case "duplicate last wins" `Quick test_duplicate_directive_last_wins;
    Alcotest.test_case "mixed case rejected" `Quick test_mixed_case_rejected;
    Alcotest.test_case "truncated names end-to-end" `Quick
      test_truncated_names_accepted_end_to_end;
    Alcotest.test_case "mysqldump latent errors" `Quick
      test_mysqldump_surfaces_latent_errors;
    Alcotest.test_case "orphan option rejected" `Quick test_orphan_option_rejected;
    Alcotest.test_case "missing file" `Quick test_missing_file;
  ]
