(* Cross-cutting edge cases and determinism guarantees. *)

module Rng = Conferr_util.Rng
module Node = Conftree.Node

let contains needle msg = Conferr_util.Strutil.contains_substring ~needle msg

(* --- engine determinism: the replayability the paper's benchmark use
       case needs --- *)

let profile_fingerprint seed =
  let sut = Suts.Mini_mysql.sut in
  let rng = Rng.create seed in
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.fail msg
  | Ok base ->
    let scenarios =
      Conferr.Campaign.typo_scenarios ~rng
        ~faultload:Conferr.Campaign.paper_faultload sut base
    in
    let profile = Conferr.Engine.run_from ~sut ~base ~scenarios () in
    List.map
      (fun (e : Conferr.Profile.entry) ->
        (e.scenario_id, Conferr.Outcome.label e.outcome))
      profile.Conferr.Profile.entries

let test_campaign_replayable () =
  Alcotest.(check (list (pair string string)))
    "same seed, same profile" (profile_fingerprint 77) (profile_fingerprint 77)

(* --- empty and degenerate configurations --- *)

let test_empty_config_mysql () =
  match Suts.Mini_mysql.sut.Suts.Sut.boot [ ("my.cnf", "") ] with
  | Ok instance ->
    Alcotest.(check bool) "all defaults work" true
      (List.for_all (fun (r : Suts.Sut.test_result) -> r.passed) (instance.Suts.Sut.run_tests ()))
  | Error msg -> Alcotest.failf "empty config must boot on defaults: %s" msg

let test_empty_config_pg () =
  match Suts.Mini_pg.sut.Suts.Sut.boot [ ("postgresql.conf", "") ] with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "empty config must boot on defaults: %s" msg

let test_empty_config_apache_refused () =
  (* no Listen -> no sockets *)
  match
    Suts.Mini_apache.sut.Suts.Sut.boot [ ("httpd.conf", ""); ("ssl.conf", "") ]
  with
  | Error msg -> Alcotest.(check bool) "no sockets" true (contains "sockets" msg)
  | Ok _ -> Alcotest.fail "apache without Listen must refuse startup"

let test_comment_only_configs () =
  List.iter
    (fun (sut, file) ->
      match (List.assoc sut [ ("mysql", Suts.Mini_mysql.sut); ("postgres", Suts.Mini_pg.sut) ]).Suts.Sut.boot
              [ (file, "# nothing but comments\n# more\n") ]
      with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" sut msg)
    [ ("mysql", "my.cnf"); ("postgres", "postgresql.conf") ]

(* --- huge values and odd characters --- *)

let test_long_values_survive () =
  let long = String.make 4096 'x' in
  let config = Printf.sprintf "[mysqld]\nsocket = /%s\n" long in
  match Suts.Mini_mysql.sut.Suts.Sut.boot [ ("my.cnf", config) ] with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "long path rejected: %s" msg

let test_unicode_bytes_in_values () =
  (* bytes above 127 in a freeform Apache value must not crash anything *)
  let httpd = List.assoc "httpd.conf" Suts.Mini_apache.sut.Suts.Sut.default_config in
  let config = httpd ^ "ServerAdmin caf\xc3\xa9@example.com\n" in
  match
    Suts.Mini_apache.sut.Suts.Sut.boot
      [ ("httpd.conf", config);
        ("ssl.conf", List.assoc "ssl.conf" Suts.Mini_apache.sut.Suts.Sut.default_config) ]
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "utf-8 value rejected: %s" msg

(* --- parser robustness over random bytes (never raise) --- *)

let prop_formats_never_raise =
  let fmt_gen = QCheck2.Gen.oneofl Formats.Registry.all in
  QCheck2.Test.make ~count:300 ~name:"formats: parse never raises on random input"
    QCheck2.Gen.(pair fmt_gen (string_size (int_range 0 200)))
    (fun (fmt, text) ->
      match fmt.Formats.Registry.parse text with Ok _ | Error _ -> true)

let prop_sut_boot_never_raises =
  let input =
    QCheck2.Gen.(
      oneofl Suts.Catalog.all >>= fun (sut : Suts.Sut.t) ->
      map
        (fun text -> (sut, List.map (fun (f, _) -> (f, text)) sut.config_files))
        (string_size (int_range 0 200)))
  in
  QCheck2.Test.make ~count:400 ~name:"suts: boot never raises on random single-file input"
    input
    (fun ((sut : Suts.Sut.t), files) ->
      match sut.boot files with Ok _ | Error _ -> true)

(* Each SUT's stock configuration with one run of digits (a port, a
   size, a timer...) widened to 20 to 40 digits, too large for an int:
   every parser must refuse it rather than raise, in boot and in the
   SUT's rule set, base and deepened. *)
let prop_widened_number_never_raises =
  let digit_runs text =
    let n = String.length text in
    let is_digit i = i < n && text.[i] >= '0' && text.[i] <= '9' in
    let rec go i acc =
      if i >= n then List.rev acc
      else if is_digit i then begin
        let j = ref i in
        while is_digit !j do incr j done;
        go !j ((i, !j - i) :: acc)
      end
      else go (i + 1) acc
    in
    go 0 []
  in
  let widened (sut : Suts.Sut.t) =
    let sites =
      List.concat_map
        (fun (file, text) -> List.map (fun run -> (file, run)) (digit_runs text))
        sut.default_config
    in
    QCheck2.Gen.map2
      (fun (file, (start, len)) width ->
        List.map
          (fun (f, text) ->
            if f <> file then (f, text)
            else
              ( f,
                String.sub text 0 start ^ String.make width '9'
                ^ String.sub text (start + len) (String.length text - start - len) ))
          sut.default_config)
      (QCheck2.Gen.oneofl sites)
      (QCheck2.Gen.int_range 20 40)
  in
  let input =
    QCheck2.Gen.(
      oneofl Suts.Catalog.all >>= fun sut -> map (fun files -> (sut, files)) (widened sut))
  in
  QCheck2.Test.make ~count:300
    ~name:"suts: boot and lint never raise on a stock config with a widened number"
    input
    (fun ((sut : Suts.Sut.t), files) ->
      (match sut.boot files with Ok _ | Error _ -> ());
      match Conferr.Engine.parse_config sut files with
      | Error _ -> true
      | Ok set ->
        let base = Option.get (Suts.Lint_rules.for_sut sut.sut_name) in
        List.iter
          (fun rules -> ignore (Conferr_lint.Checker.run ~rules set))
          [ base; Suts.Dataflow_rules.deepen sut.sut_name base ];
        true)

(* --- variations property --- *)

let prop_variations_preserve_directive_multiset =
  let class_gen =
    QCheck2.Gen.oneofl
      [ Errgen.Variations.Reorder_sections; Errgen.Variations.Reorder_directives ]
  in
  QCheck2.Test.make ~count:100
    ~name:"variations: reordering preserves the directive multiset"
    QCheck2.Gen.(pair class_gen (pair int Gen.ini_tree_gen))
    (fun (class_, (seed, tree)) ->
      let set = Conftree.Config_set.of_list [ ("f", tree) ] in
      let rng = Rng.create seed in
      match Errgen.Variations.scenarios ~rng ~count:1 class_ ~file:"f" set with
      | [] -> true (* class not applicable to this tree *)
      | s :: _ ->
        (match s.Errgen.Scenario.apply set with
         | Error _ -> false
         | Ok set' ->
           let names t =
             Node.find_all (fun n -> n.Node.kind = Node.kind_directive) t
             |> List.map (fun (_, (n : Node.t)) -> n.name)
             |> List.sort compare
           in
           (match Conftree.Config_set.find set' "f" with
            | None -> false
            | Some tree' -> names tree = names tree')))

(* --- minisql property --- *)

let prop_minisql_insert_select =
  QCheck2.Test.make ~count:100 ~name:"minisql: inserted rows are all selectable"
    QCheck2.Gen.(list_size (int_range 0 20) (pair small_int (string_size ~gen:(char_range 'a' 'z') (int_range 0 8))))
    (fun rows ->
      let e = Minisql.Engine.create () in
      let ok sql =
        match Minisql.Engine.run e sql with
        | Minisql.Engine.Done | Minisql.Engine.Rows _ -> true
        | Minisql.Engine.Sql_error _ -> false
      in
      ok "CREATE DATABASE d"
      && ok "CREATE TABLE t (id INT, name TEXT)"
      && List.for_all
           (fun (i, s) ->
             ok (Printf.sprintf "INSERT INTO t VALUES (%d, '%s')" i s))
           rows
      &&
      match Minisql.Engine.run e "SELECT * FROM t" with
      | Minisql.Engine.Rows rs -> List.length rs.Minisql.Engine.rows = List.length rows
      | _ -> false)

let suite =
  [
    Alcotest.test_case "campaign replayable" `Slow test_campaign_replayable;
    Alcotest.test_case "empty config mysql" `Quick test_empty_config_mysql;
    Alcotest.test_case "empty config postgres" `Quick test_empty_config_pg;
    Alcotest.test_case "empty config apache" `Quick test_empty_config_apache_refused;
    Alcotest.test_case "comment-only configs" `Quick test_comment_only_configs;
    Alcotest.test_case "long values" `Quick test_long_values_survive;
    Alcotest.test_case "non-ascii bytes" `Quick test_unicode_bytes_in_values;
    QCheck_alcotest.to_alcotest prop_formats_never_raise;
    QCheck_alcotest.to_alcotest prop_sut_boot_never_raises;
    QCheck_alcotest.to_alcotest prop_widened_number_never_raises;
    QCheck_alcotest.to_alcotest prop_variations_preserve_directive_multiset;
    QCheck_alcotest.to_alcotest prop_minisql_insert_select;
  ]
