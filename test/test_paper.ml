(* Integration tests asserting the paper-shaped results.  Fixed seeds
   keep them deterministic; tolerances match the reproduction target
   ("who wins, by roughly what factor"), not exact historical numbers. *)

module Paper = Conferr.Paper
module Profile = Conferr.Profile
module Compare = Conferr.Compare
module Structural_check = Conferr.Structural_check
module Variations = Errgen.Variations

let table1 = lazy (Paper.table1 ~seed:42 ())

let summary_of name =
  let { Paper.profiles } = Lazy.force table1 in
  let p = List.find (fun p -> p.Profile.sut_name = name) profiles in
  Profile.summarize p

let rate s = Profile.detection_rate s

let ignored_fraction s =
  if s.Profile.total = 0 then 0.
  else float_of_int s.Profile.ignored /. float_of_int s.Profile.total

let test_table1_database_detection_high () =
  (* MySQL and Postgres detect the large majority of typos at startup *)
  Alcotest.(check bool) "mysql >= 60%" true (rate (summary_of "mysql") >= 0.6);
  Alcotest.(check bool) "postgres >= 60%" true (rate (summary_of "postgres") >= 0.6)

let test_table1_apache_ignores_most () =
  let apache = summary_of "apache" in
  Alcotest.(check bool) "apache ignores > 50%" true (ignored_fraction apache > 0.5);
  Alcotest.(check bool) "apache detects far less than the databases" true
    (rate apache < rate (summary_of "mysql") -. 0.2
     && rate apache < rate (summary_of "postgres") -. 0.2)

let test_table1_functional_detection_small () =
  List.iter
    (fun name ->
      let s = summary_of name in
      let f =
        if s.Profile.total = 0 then 0.
        else float_of_int s.Profile.functional /. float_of_int s.Profile.total
      in
      Alcotest.(check bool) (name ^ " functional <= 10%") true (f <= 0.1))
    [ "mysql"; "postgres"; "apache" ]

let test_table1_no_na () =
  (* every typo scenario is expressible in the native formats *)
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " n/a") 0 (summary_of name).Profile.not_applicable)
    [ "mysql"; "postgres"; "apache" ]

let find_row (check : Structural_check.t) class_name =
  let row =
    List.find (fun (r : Structural_check.row) -> r.class_name = class_name)
      check.Structural_check.rows
  in
  Structural_check.support_label row.support

let test_table2_matches_paper_exactly () =
  let { Paper.checks } = Paper.table2 ~seed:42 () in
  let check name = List.find (fun c -> c.Structural_check.sut_name = name) checks in
  let mysql = check "mysql" and pg = check "postgres" and apache = check "apache" in
  (* paper Table 2, cell by cell *)
  Alcotest.(check string) "mysql sections" "Yes" (find_row mysql Variations.Reorder_sections);
  Alcotest.(check string) "pg sections" "n/a" (find_row pg Variations.Reorder_sections);
  Alcotest.(check string) "apache sections" "n/a" (find_row apache Variations.Reorder_sections);
  Alcotest.(check string) "mysql directives" "Yes" (find_row mysql Variations.Reorder_directives);
  Alcotest.(check string) "pg directives" "Yes" (find_row pg Variations.Reorder_directives);
  Alcotest.(check string) "apache directives" "Yes" (find_row apache Variations.Reorder_directives);
  Alcotest.(check string) "mysql spaces" "Yes" (find_row mysql Variations.Separator_spacing);
  Alcotest.(check string) "pg spaces" "Yes" (find_row pg Variations.Separator_spacing);
  Alcotest.(check string) "apache spaces" "Yes" (find_row apache Variations.Separator_spacing);
  Alcotest.(check string) "mysql case" "No" (find_row mysql Variations.Mixed_case_names);
  Alcotest.(check string) "pg case" "Yes" (find_row pg Variations.Mixed_case_names);
  Alcotest.(check string) "apache case" "Yes" (find_row apache Variations.Mixed_case_names);
  Alcotest.(check string) "mysql truncation" "Yes" (find_row mysql Variations.Truncated_names);
  Alcotest.(check string) "pg truncation" "No" (find_row pg Variations.Truncated_names);
  Alcotest.(check string) "apache truncation" "No" (find_row apache Variations.Truncated_names)

let test_table2_percentages () =
  let { Paper.checks } = Paper.table2 ~seed:42 () in
  let pct name =
    (List.find (fun c -> c.Structural_check.sut_name = name) checks)
      .Structural_check.satisfied_percent
  in
  Alcotest.(check int) "mysql 80%" 80 (int_of_float (pct "mysql"));
  Alcotest.(check int) "pg 75%" 75 (int_of_float (pct "postgres"));
  Alcotest.(check int) "apache 75%" 75 (int_of_float (pct "apache"))

(* The lines of a rendered table that start with [prefix], trailing
   padding dropped. *)
let rows_from ~prefix text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> Conferr_util.Strutil.is_prefix ~prefix l)
  |> List.map (fun l ->
         let n = ref (String.length l) in
         while !n > 0 && l.[!n - 1] = ' ' do decr n done;
         String.sub l 0 !n)

let test_table3_matches_paper_exactly () =
  let rows =
    List.concat_map
      (fun i -> rows_from ~prefix:(string_of_int i ^ " ")
          (Paper.render_table3 (Paper.table3 ())))
      [ 1; 2; 3; 4 ]
  in
  (* BIND and djbdns verdicts, as Table 3 prints them *)
  Alcotest.(check (list string))
    "all four rows"
    [
      "1     Missing PTR                 not found  N/A";
      "2     PTR pointing to CNAME       not found  N/A";
      "3     dupl name for NS and CNAME  found      not found";
      "4     MX pointing to CNAME        found      not found";
    ]
    rows

let figure3 = lazy (Paper.figure3 ~seed:42 ())

(* A SUT's share of directives per detection range, as Figure 3 prints
   it: [(label, percent)], best range first. *)
let shares (r : Compare.t) =
  String.split_on_char '\n' (Compare.render_figure3 [ r ])
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | bin :: pct :: _ when String.ends_with ~suffix:"%" pct ->
           Some (bin, float_of_string (String.sub pct 0 (String.length pct - 1)))
         | _ -> None)

let bucket results name bin =
  let r = List.find (fun (r : Compare.t) -> r.Compare.sut_name = name) results in
  List.assoc bin (shares r)

let test_figure3_pg_excellent_dominates () =
  let { Paper.results } = Lazy.force figure3 in
  (* paper: Postgres detects >75% of typos in ~45% of its directives *)
  let excellent = bucket results "postgres" "Excellent" in
  Alcotest.(check bool)
    (Printf.sprintf "postgres excellent %.0f%% in [25, 65]" excellent)
    true
    (excellent >= 25. && excellent <= 65.)

let test_figure3_mysql_poor_dominates () =
  let { Paper.results } = Lazy.force figure3 in
  (* paper: MySQL detects <25% of typos in ~45% of its directives *)
  let poor = bucket results "mysql" "Poor" in
  (* 20 experiments per directive put several directives near the 25%
     bin boundary; across seeds the poor bucket spans ~45-70% *)
  Alcotest.(check bool)
    (Printf.sprintf "mysql poor %.0f%% in [30, 75]" poor)
    true
    (poor >= 30. && poor <= 75.)

let test_figure3_postgres_wins () =
  let { Paper.results } = Lazy.force figure3 in
  let top_half results name =
    bucket results name "Excellent" +. bucket results name "Good"
  in
  Alcotest.(check bool) "postgres clearly more resilient" true
    (top_half results "postgres" > top_half results "mysql" +. 20.)

let test_bins () =
  (* detection rates 0 and 0.25 are poor, 0.3 fair, 0.6 good and 1.0
     excellent: the range boundaries belong to the lower range *)
  let directive detected =
    { Compare.directive = Printf.sprintf "d%d" detected; experiments = 20; detected }
  in
  let r =
    { Compare.sut_name = "x"; per_directive = List.map directive [ 0; 5; 6; 12; 20 ] }
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "shares per range"
    [ ("Excellent", 20.); ("Good", 20.); ("Fair", 20.); ("Poor", 40.) ]
    (shares r)

let test_distribution_sums_to_100 () =
  let { Paper.results } = Lazy.force figure3 in
  List.iter
    (fun r ->
      let total =
        List.fold_left (fun acc (_, pct) -> acc +. pct) 0. (shares r)
      in
      (* four shares printed to one decimal *)
      Alcotest.(check bool)
        (r.Compare.sut_name ^ " sums to 100")
        true
        (abs_float (total -. 100.) <= 0.2))
    results

let test_figure_dns_extension () =
  let text = Paper.run_all ~seed:42 () in
  List.iter
    (fun server ->
      match rows_from ~prefix:(server ^ " ") text with
      | [ row ] -> (
        match List.filter (( <> ) "") (String.split_on_char ' ' row) with
        | [ _; typos; detected ] ->
          Alcotest.(check bool) (server ^ " ran injections") true
            (int_of_string typos > 0);
          (* both DNS servers ignore the majority of record-data typos *)
          Alcotest.(check bool)
            (server ^ " detection below 50%")
            true
            (int_of_string (String.sub detected 0 (String.length detected - 1)) < 50)
        | _ -> Alcotest.failf "%s: unexpected row %S" server row)
      | rows -> Alcotest.failf "%s: %d rows" server (List.length rows))
    [ "bind"; "djbdns" ]

let test_run_all_contains_every_section () =
  let text = Paper.run_all ~seed:42 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Conferr_util.Strutil.contains_substring ~needle text))
    [
      "Table 1"; "Table 2"; "Table 3"; "Figure 3"; "Configuration-process";
      "BIND vs djbdns";
    ]

let test_renderings_non_empty () =
  let shortish s = String.length s > 50 in
  Alcotest.(check bool) "table1" true (shortish (Paper.render_table1 (Lazy.force table1)));
  Alcotest.(check bool) "table2" true (shortish (Paper.render_table2 (Paper.table2 ~seed:1 ())));
  Alcotest.(check bool) "table3" true (shortish (Paper.render_table3 (Paper.table3 ())));
  Alcotest.(check bool) "figure3" true
    (shortish (Paper.render_figure3 (Lazy.force figure3)))

let suite =
  [
    Alcotest.test_case "table1 database detection" `Slow test_table1_database_detection_high;
    Alcotest.test_case "table1 apache ignores" `Slow test_table1_apache_ignores_most;
    Alcotest.test_case "table1 functional small" `Slow test_table1_functional_detection_small;
    Alcotest.test_case "table1 no n/a" `Slow test_table1_no_na;
    Alcotest.test_case "table2 exact cells" `Slow test_table2_matches_paper_exactly;
    Alcotest.test_case "table2 percentages" `Slow test_table2_percentages;
    Alcotest.test_case "table3 exact" `Slow test_table3_matches_paper_exactly;
    Alcotest.test_case "figure3 pg excellent" `Slow test_figure3_pg_excellent_dominates;
    Alcotest.test_case "figure3 mysql poor" `Slow test_figure3_mysql_poor_dominates;
    Alcotest.test_case "figure3 postgres wins" `Slow test_figure3_postgres_wins;
    Alcotest.test_case "bins" `Quick test_bins;
    Alcotest.test_case "distribution sums" `Slow test_distribution_sums_to_100;
    Alcotest.test_case "figure_dns extension" `Slow test_figure_dns_extension;
    Alcotest.test_case "run_all sections" `Slow test_run_all_contains_every_section;
    Alcotest.test_case "renderings" `Slow test_renderings_non_empty;
  ]
