(* White-box tests for the Apache simulator: module system, lax value
   checking (the paper's flaws), Listen/functional detection. *)

module A = Suts.Mini_apache
module Sut = Suts.Sut

let default_text = List.assoc "httpd.conf" A.sut.Sut.default_config

let boot config = A.sut.Sut.boot [ ("httpd.conf", config) ]

let boot_ok config =
  match boot config with
  | Ok instance -> instance
  | Error msg -> Alcotest.failf "expected successful startup, got: %s" msg

let boot_err config =
  match boot config with
  | Ok _ -> Alcotest.fail "expected startup failure"
  | Error msg -> msg

let tests_pass instance = List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Sut.run_tests ())

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

let with_line line = default_text ^ line ^ "\n"

let without_line fragment =
  Conferr_util.Strutil.lines default_text
  |> List.filter (fun l -> not (contains fragment l))
  |> Conferr_util.Strutil.unlines

let test_default_boots () =
  Alcotest.(check bool) "default passes" true (tests_pass (boot_ok default_text))

let test_unknown_directive_invalid_command () =
  let msg = boot_err (with_line "Listten 8081") in
  Alcotest.(check bool) "invalid command" true (contains "Invalid command" msg);
  Alcotest.(check bool) "helpful hint" true (contains "misspelled" msg)

let test_directive_names_case_insensitive () =
  Alcotest.(check bool) "mixed case ok" true
    (tests_pass (boot_ok (with_line "TIMEOUT 60")))

let test_module_registry () =
  Alcotest.(check bool) "known" true (A.known_module "mime_module");
  Alcotest.(check bool) "unknown" false (A.known_module "nope_module");
  Alcotest.(check (option string)) "directive ownership" (Some "mime_module")
    (A.directive_module "AddType");
  Alcotest.(check (option string)) "core directive" None (A.directive_module "Listen")

let test_deleting_loadmodule_strands_directives () =
  (* the mechanism behind many of the paper's Apache startup detections *)
  let msg = boot_err (without_line "mod_mime.so") in
  Alcotest.(check bool) "dependent directive invalid" true (contains "Invalid command" msg)

let test_deleting_unused_loadmodule_harmless () =
  Alcotest.(check bool) "no dependents, no error" true
    (tests_pass (boot_ok (without_line "mod_proxy_http.so")))

let test_loadmodule_wrong_path () =
  let msg = boot_err (with_line "LoadModule env_module modules/mod_env2.so") in
  Alcotest.(check bool) "cannot load" true (contains "Cannot load" msg)

let test_loadmodule_unknown_module () =
  let msg = boot_err (with_line "LoadModule quantum_module modules/mod_quantum.so") in
  Alcotest.(check bool) "undefined module" true (contains "undefined module" msg)

let test_missing_listen_refuses_startup () =
  let msg = boot_err (without_line "Listen 80") in
  Alcotest.(check bool) "no sockets" true (contains "no listening sockets" msg)

let test_listen_typo_survives_startup_fails_functionally () =
  (* the paper: 5% of Apache faults are caught only by the HTTP GET *)
  let config =
    Conferr_util.Strutil.lines default_text
    |> List.map (fun l -> if l = "Listen 80" then "Listen 8080" else l)
    |> Conferr_util.Strutil.unlines
  in
  let instance = boot_ok config in
  Alcotest.(check bool) "GET fails" false (tests_pass instance)

let test_listen_invalid_port_rejected () =
  ignore (boot_err (with_line "Listen 8o80"));
  ignore (boot_err (with_line "Listen 123456"))

let test_addtype_accepts_freeform () =
  (* flaw: no RFC-2045 type/subtype validation *)
  Alcotest.(check bool) "nonsense MIME accepted" true
    (tests_pass (boot_ok (with_line "AddType completegarbage .xyz")))

let test_defaulttype_accepts_freeform () =
  Alcotest.(check bool) "flaw" true
    (tests_pass (boot_ok (with_line "DefaultType not-a-mime-type")))

let test_serveradmin_accepts_anything () =
  Alcotest.(check bool) "flaw" true
    (tests_pass (boot_ok (with_line "ServerAdmin not@@an@@address")))

let test_servername_accepts_anything () =
  Alcotest.(check bool) "flaw" true
    (tests_pass (boot_ok (with_line "ServerName !!!not-a-hostname!!!")))

let test_enum_values_strict () =
  ignore (boot_err (with_line "LogLevel wran"));
  ignore (boot_err (with_line "KeepAlive Offf"));
  ignore (boot_err (with_line "Timeout 12s"));
  ignore (boot_err (with_line "ServerTokens Operating"))

let test_user_group_checked () =
  ignore (boot_err (with_line "User apachee"));
  ignore (boot_err (with_line "Group wheel"))

let test_log_path_parent_checked () =
  ignore (boot_err (with_line "ErrorLog /var/lgo/httpd/error_log"));
  Alcotest.(check bool) "piped log ok" true
    (tests_pass (boot_ok (with_line "ErrorLog |/usr/bin/logger")))

let test_options_strict () =
  ignore (boot_err (with_line "Options Indexess"));
  Alcotest.(check bool) "plus/minus accepted" true
    (tests_pass (boot_ok (with_line "Options +Indexes -FollowSymLinks")))

let test_order_allow_strict () =
  ignore (boot_err (default_text ^ "<Directory />\nOrder allow;deny\n</Directory>\n"));
  ignore (boot_err (default_text ^ "<Directory />\nAllow frmo all\n</Directory>\n"))

let test_ifmodule_skipped_body_ignores_errors () =
  (* directives inside an <IfModule> for an absent module are skipped,
     even invalid ones *)
  let config =
    default_text ^ "<IfModule mod_imaginary.c>\nUtterGarbage here\n</IfModule>\n"
  in
  Alcotest.(check bool) "skipped" true (tests_pass (boot_ok config))

let test_ifmodule_present_body_processed () =
  let config =
    default_text ^ "<IfModule mod_mime.c>\nUtterGarbage here\n</IfModule>\n"
  in
  ignore (boot_err config)

let test_ifmodule_negation () =
  let config =
    default_text ^ "<IfModule !mod_imaginary.c>\nAddType text/plain .txt\n</IfModule>\n"
  in
  Alcotest.(check bool) "negated body processed" true (tests_pass (boot_ok config))

let test_ifmodule_tab_separated () =
  (* a tab between the section's name and its module, as httpd reads it *)
  let config =
    default_text ^ "<IfModule\tmod_userdir.c>\n  UserDir disabled\n</IfModule>\n"
  in
  Alcotest.(check bool) "boots" true (tests_pass (boot_ok config))

let test_documentroot_typo_fails_functionally () =
  (* typo both the main and the vhost DocumentRoot *)
  let config =
    Conferr_util.Strutil.lines default_text
    |> List.map (fun l ->
           if Conferr_util.Strutil.trim l = "DocumentRoot /var/www/html" then
             "DocumentRoot /var/www/htmll"
           else l)
    |> Conferr_util.Strutil.unlines
  in
  let instance = boot_ok config in
  Alcotest.(check bool) "404" false (tests_pass instance)

let test_directive_order_irrelevant () =
  (* module directives may appear before their LoadModule line *)
  let config = "AddType text/x-test .tst\n" ^ default_text in
  Alcotest.(check bool) "two-pass module loading" true (tests_pass (boot_ok config))

let test_duplicate_listen_accumulates () =
  Alcotest.(check bool) "both ports listen" true
    (tests_pass (boot_ok (with_line "Listen 8081")))

let test_ssl_conf_is_part_of_the_configuration () =
  (* a typo'd directive name in ssl.conf is detected at startup, like
     one in httpd.conf: both files form one configuration *)
  let ssl = List.assoc "ssl.conf" A.sut.Sut.default_config in
  let bad_ssl = ssl ^ "SSLEngien on\n" in
  match A.sut.Sut.boot [ ("httpd.conf", default_text); ("ssl.conf", bad_ssl) ] with
  | Error msg -> Alcotest.(check bool) "invalid command" true (contains "Invalid command" msg)
  | Ok _ -> Alcotest.fail "typo in ssl.conf must fail startup"

let test_boot_without_ssl_conf_still_works () =
  Alcotest.(check bool) "httpd.conf alone is enough" true
    (match A.sut.Sut.boot [ ("httpd.conf", default_text) ] with
     | Ok i -> tests_pass i
     | Error _ -> false)

let test_namevirtualhost_duplicate_accepted () =
  (* duplicated NameVirtualHost: last replica overrides, no error *)
  Alcotest.(check bool) "accepted" true
    (tests_pass
       (boot_ok (with_line "NameVirtualHost *:80\nNameVirtualHost *:80")))

let test_serverroot_typo_detected () =
  ignore (boot_err (with_line "ServerRoot /etc/htppd"))

let test_include_missing_file_detected () =
  ignore (boot_err (with_line "Include /etc/httpd/conf.d/missing.conf"))

let test_errordocument_arity () =
  ignore (boot_err (with_line "ErrorDocument 404"));
  Alcotest.(check bool) "two args ok" true
    (tests_pass (boot_ok (with_line "ErrorDocument 404 /missing.html")))

let test_vhost_port_parsing () =
  let config =
    default_text ^ "<VirtualHost *:9090>\nServerName x\nDocumentRoot /var/www/html\n</VirtualHost>\n"
  in
  Alcotest.(check bool) "vhost on another port ok" true (tests_pass (boot_ok config))

let suite =
  [
    Alcotest.test_case "default boots" `Quick test_default_boots;
    Alcotest.test_case "invalid command" `Quick test_unknown_directive_invalid_command;
    Alcotest.test_case "case-insensitive names" `Quick
      test_directive_names_case_insensitive;
    Alcotest.test_case "module registry" `Quick test_module_registry;
    Alcotest.test_case "LoadModule deletion strands" `Quick
      test_deleting_loadmodule_strands_directives;
    Alcotest.test_case "unused LoadModule deletion" `Quick
      test_deleting_unused_loadmodule_harmless;
    Alcotest.test_case "LoadModule wrong path" `Quick test_loadmodule_wrong_path;
    Alcotest.test_case "LoadModule unknown module" `Quick test_loadmodule_unknown_module;
    Alcotest.test_case "missing Listen" `Quick test_missing_listen_refuses_startup;
    Alcotest.test_case "Listen typo functional" `Quick
      test_listen_typo_survives_startup_fails_functionally;
    Alcotest.test_case "Listen invalid port" `Quick test_listen_invalid_port_rejected;
    Alcotest.test_case "AddType freeform (flaw)" `Quick test_addtype_accepts_freeform;
    Alcotest.test_case "DefaultType freeform (flaw)" `Quick
      test_defaulttype_accepts_freeform;
    Alcotest.test_case "ServerAdmin anything (flaw)" `Quick
      test_serveradmin_accepts_anything;
    Alcotest.test_case "ServerName anything (flaw)" `Quick
      test_servername_accepts_anything;
    Alcotest.test_case "enums strict" `Quick test_enum_values_strict;
    Alcotest.test_case "user/group checked" `Quick test_user_group_checked;
    Alcotest.test_case "log path checked" `Quick test_log_path_parent_checked;
    Alcotest.test_case "options strict" `Quick test_options_strict;
    Alcotest.test_case "order/allow strict" `Quick test_order_allow_strict;
    Alcotest.test_case "IfModule skipped" `Quick test_ifmodule_skipped_body_ignores_errors;
    Alcotest.test_case "IfModule present" `Quick test_ifmodule_present_body_processed;
    Alcotest.test_case "IfModule negation" `Quick test_ifmodule_negation;
    Alcotest.test_case "DocumentRoot typo functional" `Quick
      test_documentroot_typo_fails_functionally;
    Alcotest.test_case "directive order irrelevant" `Quick test_directive_order_irrelevant;
    Alcotest.test_case "duplicate Listen" `Quick test_duplicate_listen_accumulates;
    Alcotest.test_case "vhost port" `Quick test_vhost_port_parsing;
    Alcotest.test_case "ssl.conf typos detected" `Quick
      test_ssl_conf_is_part_of_the_configuration;
    Alcotest.test_case "boot without ssl.conf" `Quick test_boot_without_ssl_conf_still_works;
    Alcotest.test_case "NameVirtualHost duplicate" `Quick
      test_namevirtualhost_duplicate_accepted;
    Alcotest.test_case "ServerRoot typo" `Quick test_serverroot_typo_detected;
    Alcotest.test_case "Include missing file" `Quick test_include_missing_file_detected;
    Alcotest.test_case "ErrorDocument arity" `Quick test_errordocument_arity;
    Alcotest.test_case "IfModule tab separated" `Quick test_ifmodule_tab_separated;
  ]
