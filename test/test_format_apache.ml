module Apacheconf = Formats.Apacheconf
module Node = Conftree.Node

let parse_exn text =
  match Apacheconf.parse text with
  | Ok t -> t
  | Error e -> Alcotest.failf "parse error: %s" (Formats.Parse_error.to_string e)

let sample =
  String.concat "\n"
    [
      "# header";
      "Listen 80";
      "ServerName www.example.com";
      "<VirtualHost *:80>";
      "  DocumentRoot /var/www/html";
      "  <Directory \"/var/www/html\">";
      "    Options Indexes";
      "  </Directory>";
      "</VirtualHost>";
      "";
    ]

let test_parse_structure () =
  let t = parse_exn sample in
  Alcotest.(check (list string))
    "top-level kinds"
    [ Node.kind_comment; Node.kind_directive; Node.kind_directive; Node.kind_section ]
    (List.map (fun (n : Node.t) -> n.kind) t.Node.children)

let test_directive_value () =
  let t = parse_exn sample in
  match Node.get t [ 1 ] with
  | Some d ->
    Alcotest.(check string) "name" "Listen" d.Node.name;
    Alcotest.(check (option string)) "value" (Some "80") d.Node.value
  | None -> Alcotest.fail "missing"

let test_section_arg () =
  let t = parse_exn sample in
  match Node.get t [ 3 ] with
  | Some s ->
    Alcotest.(check string) "name" "VirtualHost" s.Node.name;
    Alcotest.(check (option string)) "arg" (Some "*:80") (Node.attr s "arg")
  | None -> Alcotest.fail "missing"

let test_nested_section () =
  let t = parse_exn sample in
  match Node.get t [ 3; 1 ] with
  | Some s ->
    Alcotest.(check string) "nested name" "Directory" s.Node.name;
    (match Node.get t [ 3; 1; 0 ] with
     | Some d -> Alcotest.(check string) "inner directive" "Options" d.Node.name
     | None -> Alcotest.fail "missing inner")
  | None -> Alcotest.fail "missing nested"

let test_tab_separated_directive () =
  let t = parse_exn "Listen\t8080\n" in
  match Node.get t [ 0 ] with
  | Some d ->
    Alcotest.(check string) "name" "Listen" d.Node.name;
    Alcotest.(check (option string)) "value" (Some "8080") d.Node.value
  | None -> Alcotest.fail "missing"

let test_case_insensitive_close () =
  let t = parse_exn "<Directory /tmp>\n</DIRECTORY>\n" in
  Alcotest.(check int) "one section" 1 (List.length t.Node.children)

let test_mismatched_close_rejected () =
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Apacheconf.parse "<Directory /tmp>\n</VirtualHost>\n"))

let test_unclosed_section_rejected () =
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Apacheconf.parse "<Directory /tmp>\nOptions None\n"))

let test_stray_close_rejected () =
  Alcotest.(check bool) "rejected" true (Result.is_error (Apacheconf.parse "</Directory>\n"))

let test_roundtrip_semantics () =
  let t = parse_exn sample in
  match Apacheconf.serialize t with
  | Error msg -> Alcotest.failf "serialize: %s" msg
  | Ok text ->
    let t2 = parse_exn text in
    Alcotest.(check bool) "same structure" true (Node.equal_modulo_attrs t t2)

let test_serialize_indents () =
  let t = parse_exn sample in
  match Apacheconf.serialize t with
  | Ok text ->
    Alcotest.(check bool) "inner directive indented" true
      (Conferr_util.Strutil.contains_substring ~needle:"    Options Indexes" text)
  | Error msg -> Alcotest.failf "serialize: %s" msg

let test_sep_attribute_respected () =
  let t = Node.root [ Node.directive ~attrs:[ ("sep", "\t") ] ~value:"80" "Listen" ] in
  match Apacheconf.serialize t with
  | Ok text -> Alcotest.(check string) "tab used" "Listen\t80\n" text
  | Error msg -> Alcotest.failf "serialize: %s" msg

(* httpd splits a section tag like a directive: the name ends at the
   first space or tab *)
let test_tab_in_section_tag () =
  let t = parse_exn "<VirtualHost\t*:80>\nListen 80\n</VirtualHost>\n" in
  match Node.get t [ 0 ] with
  | Some s ->
    Alcotest.(check string) "name" "VirtualHost" s.Node.name;
    Alcotest.(check (option string)) "arg" (Some "*:80") (Node.attr s "arg")
  | None -> Alcotest.fail "missing"

let suite =
  [
    Alcotest.test_case "parse structure" `Quick test_parse_structure;
    Alcotest.test_case "directive value" `Quick test_directive_value;
    Alcotest.test_case "section arg" `Quick test_section_arg;
    Alcotest.test_case "nested section" `Quick test_nested_section;
    Alcotest.test_case "tab separated" `Quick test_tab_separated_directive;
    Alcotest.test_case "case-insensitive close" `Quick test_case_insensitive_close;
    Alcotest.test_case "mismatched close" `Quick test_mismatched_close_rejected;
    Alcotest.test_case "unclosed section" `Quick test_unclosed_section_rejected;
    Alcotest.test_case "stray close" `Quick test_stray_close_rejected;
    Alcotest.test_case "roundtrip semantics" `Quick test_roundtrip_semantics;
    Alcotest.test_case "serialize indents" `Quick test_serialize_indents;
    Alcotest.test_case "sep attribute" `Quick test_sep_attribute_respected;
    Alcotest.test_case "tab in section tag" `Quick test_tab_in_section_tag;
  ]
