(* White-box tests for the PostgreSQL simulator: strict validation,
   cross-parameter constraints, Table 2 behaviours. *)

module P = Suts.Mini_pg
module Sut = Suts.Sut

let boot config = P.sut.Sut.boot [ ("postgresql.conf", config) ]

let boot_ok config =
  match boot config with
  | Ok instance -> instance
  | Error msg -> Alcotest.failf "expected successful startup, got: %s" msg

let boot_err config =
  match boot config with
  | Ok _ -> Alcotest.fail "expected startup failure"
  | Error msg -> msg

let tests_pass instance = List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Sut.run_tests ())

let default_text = List.assoc "postgresql.conf" P.sut.Sut.default_config

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

let test_default_boots () =
  Alcotest.(check bool) "default passes" true (tests_pass (boot_ok default_text))

let test_full_config_boots () =
  Alcotest.(check bool) "full config passes" true (tests_pass (boot_ok P.full_config))

let test_unknown_parameter_fatal () =
  let msg = boot_err "max_connectionz = 100\n" in
  Alcotest.(check bool) "unrecognized" true (contains "unrecognized" msg)

let test_case_insensitive_names () =
  Alcotest.(check bool) "mixed case ok" true
    (tests_pass (boot_ok "MAX_CONNECTIONS = 100\nMax_Fsm_Pages = 153600\n"))

let test_truncated_names_rejected () =
  ignore (boot_err "max_conn = 100\n")

let test_malformed_int_rejected () =
  let msg = boot_err "max_connections = 1o0\n" in
  Alcotest.(check bool) "integer error" true (contains "integer" msg)

let test_out_of_range_rejected () =
  (* contrast with MySQL's silent default *)
  let msg = boot_err "max_connections = 0\n" in
  Alcotest.(check bool) "range error" true (contains "outside the valid range" msg)

let test_memory_units () =
  Alcotest.(check bool) "MB ok" true (tests_pass (boot_ok "shared_buffers = 24MB\n"));
  Alcotest.(check bool) "kB ok" true (tests_pass (boot_ok "shared_buffers = 2048kB\n"));
  ignore (boot_err "shared_buffers = 24mb\n") (* unit case matters in 8.2 *);
  ignore (boot_err "shared_buffers = 24MB0\n") (* no trailing junk, unlike MySQL *);
  ignore (boot_err "shared_buffers = 24XB\n")

let test_time_units () =
  Alcotest.(check bool) "min ok" true (tests_pass (boot_ok "checkpoint_timeout = 5min\n"));
  Alcotest.(check bool) "s ok" true (tests_pass (boot_ok "checkpoint_timeout = 300s\n"));
  ignore (boot_err "checkpoint_timeout = 5minn\n");
  ignore (boot_err "checkpoint_timeout = 10\n") (* 10ms below the 30s minimum *)

let test_fsm_constraint () =
  (* the paper's example: 153600 -> 15600 trips the cross-check *)
  let msg = boot_err "max_fsm_pages = 15600\nmax_fsm_relations = 1000\n" in
  Alcotest.(check bool) "names the relation" true (contains "max_fsm_relations" msg);
  Alcotest.(check bool) "ok at exactly 16x" true
    (tests_pass (boot_ok "max_fsm_pages = 16000\nmax_fsm_relations = 1000\n"))

let test_shared_memory_constraint () =
  let msg = boot_err "max_connections = 10000\nshared_buffers = 1MB\n" in
  Alcotest.(check bool) "insufficient shared memory" true (contains "shared" msg)

let test_quoted_values () =
  Alcotest.(check bool) "quoted ok" true (tests_pass (boot_ok "datestyle = 'iso, mdy'\n"));
  ignore (boot_err "datestyle = 'iso, whenever'\n")

let test_enum_datestyle () =
  Alcotest.(check bool) "unquoted ok" true (tests_pass (boot_ok "datestyle = iso\n"));
  ignore (boot_err "datestyle = isoo\n")

let test_string_validators () =
  ignore (boot_err "listen_addresses = 'localhostt'\n");
  ignore (boot_err "log_timezone = 'UTCC'\n");
  ignore (boot_err "lc_messages = 'xx_XX'\n");
  Alcotest.(check bool) "known host ok" true
    (tests_pass (boot_ok "listen_addresses = '*'\n"))

let test_bool_strict () =
  Alcotest.(check bool) "on ok" true (tests_pass (boot_ok "fsync = on\n"));
  ignore (boot_err "fsync = onn\n")

let test_float_strict () =
  Alcotest.(check bool) "float ok" true (tests_pass (boot_ok "random_page_cost = 4.0\n"));
  ignore (boot_err "random_page_cost = 4..0\n")

let test_section_header_rejected () =
  let msg = boot_err "[postgres]\nmax_connections = 100\n" in
  Alcotest.(check bool) "syntax error" true (contains "syntax" msg)

let test_inline_comment_ok () =
  Alcotest.(check bool) "inline comments" true
    (tests_pass (boot_ok "max_connections = 100  # tuned\n"))

let test_space_separator_ok () =
  Alcotest.(check bool) "name value without =" true
    (tests_pass (boot_ok "max_connections 100\n"))

let test_validate_text_direct () =
  Alcotest.(check bool) "ok" true (Result.is_ok (P.validate_text "port = 5432\n"));
  Alcotest.(check bool) "error" true (Result.is_error (P.validate_text "nope = 1\n"))

let test_negative_values () =
  (* log_min_duration_statement accepts -1 (disabled) *)
  Alcotest.(check bool) "-1 accepted" true
    (tests_pass (boot_ok "log_min_duration_statement = -1\n"));
  (* but a negative max_connections is out of range *)
  ignore (boot_err "max_connections = -5\n")

let test_bare_page_units () =
  (* 8.2 reads bare shared_buffers numbers as 8kB pages *)
  Alcotest.(check bool) "3072 pages = 24MB" true
    (tests_pass (boot_ok "shared_buffers = 3072\n"));
  ignore (boot_err "shared_buffers = 10\n") (* 80kB: below the minimum *)

let test_duplicate_directive_last_wins () =
  Alcotest.(check bool) "later value applies" true
    (tests_pass (boot_ok "max_connections = 120\nmax_connections = 100\n"))

let test_full_config_covers_most_specs () =
  let lines = Conferr_util.Strutil.lines P.full_config in
  Alcotest.(check bool) "at least 25 directives" true (List.length lines >= 25);
  Alcotest.(check bool) "no booleans (paper exclusion)" true
    (not (List.exists (contains "fsync") lines))

let suite =
  [
    Alcotest.test_case "default boots" `Quick test_default_boots;
    Alcotest.test_case "full config boots" `Quick test_full_config_boots;
    Alcotest.test_case "unknown parameter" `Quick test_unknown_parameter_fatal;
    Alcotest.test_case "case-insensitive names" `Quick test_case_insensitive_names;
    Alcotest.test_case "truncated names rejected" `Quick test_truncated_names_rejected;
    Alcotest.test_case "malformed int" `Quick test_malformed_int_rejected;
    Alcotest.test_case "out of range" `Quick test_out_of_range_rejected;
    Alcotest.test_case "memory units" `Quick test_memory_units;
    Alcotest.test_case "time units" `Quick test_time_units;
    Alcotest.test_case "fsm constraint" `Quick test_fsm_constraint;
    Alcotest.test_case "shared memory constraint" `Quick test_shared_memory_constraint;
    Alcotest.test_case "quoted values" `Quick test_quoted_values;
    Alcotest.test_case "enum datestyle" `Quick test_enum_datestyle;
    Alcotest.test_case "string validators" `Quick test_string_validators;
    Alcotest.test_case "bool strict" `Quick test_bool_strict;
    Alcotest.test_case "float strict" `Quick test_float_strict;
    Alcotest.test_case "section header rejected" `Quick test_section_header_rejected;
    Alcotest.test_case "inline comment" `Quick test_inline_comment_ok;
    Alcotest.test_case "space separator" `Quick test_space_separator_ok;
    Alcotest.test_case "validate_text" `Quick test_validate_text_direct;
    Alcotest.test_case "negative values" `Quick test_negative_values;
    Alcotest.test_case "bare page units" `Quick test_bare_page_units;
    Alcotest.test_case "duplicate last wins" `Quick test_duplicate_directive_last_wins;
    Alcotest.test_case "full config shape" `Quick test_full_config_covers_most_specs;
  ]
