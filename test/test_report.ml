module Report = Conferr.Report

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

let pg_report = lazy (Report.generate ~seed:5 Suts.Mini_pg.sut)

let test_sections_present () =
  let r = Lazy.force pg_report in
  let titles = List.map (fun (s : Report.section) -> s.title) r.Report.sections in
  Alcotest.(check bool) "typos" true (List.mem "Resilience to typos" titles);
  Alcotest.(check bool) "cognitive" true (List.mem "Outcomes by cognitive level" titles);
  Alcotest.(check bool) "variations" true
    (List.mem "Structural variations accepted" titles)

let test_render () =
  let text = Report.render (Lazy.force pg_report) in
  Alcotest.(check bool) "names the version" true (contains "PostgreSQL" text);
  Alcotest.(check bool) "markdown headers" true (contains "## Resilience to typos" text)

let test_weaknesses_listed () =
  let r = Lazy.force pg_report in
  (* the silently accepted injections are listed, one item each *)
  Alcotest.(check bool) "some latent errors found" true
    (List.exists
       (fun (s : Report.section) ->
         Conferr_util.Strutil.is_prefix ~prefix:"Silently accepted" s.title
         && contains "\n  - " ("\n" ^ s.body))
       r.Report.sections)

let test_semantic_section_for_dns () =
  let r =
    Report.generate ~seed:5
      ~semantic_codec:(Dnsmodel.Codec.bind ~zones:Suts.Mini_bind.zones)
      Suts.Mini_bind.sut
  in
  Alcotest.(check bool) "rfc1912 section" true
    (List.exists
       (fun (s : Report.section) -> contains "RFC-1912" s.title)
       r.Report.sections)

let test_no_semantic_section_without_codec () =
  let r = Lazy.force pg_report in
  Alcotest.(check bool) "absent" false
    (List.exists
       (fun (s : Report.section) -> contains "RFC-1912" s.title)
       r.Report.sections)

let suite =
  [
    Alcotest.test_case "sections present" `Quick test_sections_present;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "weaknesses listed" `Quick test_weaknesses_listed;
    Alcotest.test_case "semantic for dns" `Quick test_semantic_section_for_dns;
    Alcotest.test_case "no semantic without codec" `Quick
      test_no_semantic_section_without_codec;
  ]
