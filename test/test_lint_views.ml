(* One lint of one configuration set is one walk of it: the rules of a
   checker call share its per-set views (doc/lint.md).  The oracle is the
   evaluation one rule per call, where every rule computes what it reads
   on its own, as each rule did before the views.  Every mutant of the
   paper faultloads (typo and, for the DNS SUTs, semantic) at seeds 1
   and 42, built by apply, serialize and parse as `conferr gaps` builds
   it, must get the oracle's findings, for the base and the deep rule
   sets. *)

module Config_set = Conftree.Config_set
module Finding = Conferr_lint.Finding
module Rule = Conferr_lint.Rule
module Checker = Conferr_lint.Checker
module Generate = Conferr_repair.Generate

let nearest = Conferr.Suggest.nearest

let all_suts =
  [
    Suts.Mini_pg.sut;
    Suts.Mini_mysql.sut;
    Suts.Mini_apache.sut;
    Suts.Mini_bind.sut;
    Suts.Mini_djbdns.sut;
    Suts.Mini_appserver.sut;
  ]

let mutants (sut : Suts.Sut.t) seed =
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "%s: %s" sut.sut_name msg
  | Ok base ->
    Conferr.Faultload.journal_scenarios ~seed sut base
    |> List.filter_map (fun (sc : Errgen.Scenario.t) ->
           match sc.apply base with
           | Error _ -> None
           | Ok mutated -> (
             match Conferr.Engine.serialize_config sut mutated with
             | Error _ -> None
             | Ok files -> Result.to_option (Conferr.Engine.parse_config sut files)))

let oracle_typed ~rules set =
  List.concat_map
    (fun rule ->
      List.map (fun f -> (rule, f)) (Checker.run ~nearest ~rules:[ rule ] set))
    rules

let test_one_walk_equals_one_rule_per_call () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      let base = Option.get (Suts.Lint_rules.for_sut sut.sut_name) in
      let deep = Suts.Dataflow_rules.deepen sut.sut_name base in
      List.iter
        (fun seed ->
          List.iteri
            (fun i set ->
              let where = Printf.sprintf "%s seed %d mutant %d" sut.sut_name seed i in
              (* the deep set extends the base set, so one oracle run
                 serves both *)
              let want_typed = oracle_typed ~rules:deep set in
              let typed = Generate.typed_findings ~nearest ~rules:deep set in
              let same (r, f) (r', f') = r == r' && f = f' in
              if
                not
                  (List.length typed = List.length want_typed
                  && List.for_all2 same typed want_typed)
              then Alcotest.failf "%s: typed findings differ from the oracle" where;
              List.iter
                (fun (label, rules) ->
                  let got = Checker.run ~nearest ~rules set in
                  let want =
                    List.filter (fun (r, _) -> List.memq r rules) want_typed
                    |> List.map snd
                    |> List.sort_uniq (Finding.compare ~file_order:(Config_set.names set))
                  in
                  if got <> want then
                    Alcotest.failf "%s, %s rules: Checker.run\n%s\nthe oracle\n%s" where
                      label (Checker.render_text got) (Checker.render_text want))
                [ ("base", base); ("deep", deep) ])
            (mutants sut seed))
        [ 1; 42 ])
    all_suts

(* A view read by two rules is computed once per checker call, and once
   more by the next call: nothing outlives the call. *)
let test_view_once_per_call () =
  let set = Result.get_ok (Conferr.Engine.parse_default_config Suts.Mini_pg.sut) in
  let names_computed = ref 0 and sizes_computed = ref 0 in
  let names =
    Rule.view (fun s ->
        incr names_computed;
        Config_set.names (Rule.config s))
  in
  (* a view that reads another view *)
  let sizes =
    Rule.view (fun s ->
        incr sizes_computed;
        List.length (Rule.read s names))
  in
  let rule id view =
    Rule.make ~id ~severity:Finding.Warning ~doc:"test rule (gap)"
      (Rule.Check_set
         (fun s ->
           ignore (Rule.read s view);
           []))
  in
  let rules = [ rule "A" names; rule "B" sizes; rule "C" names; rule "D" sizes ] in
  ignore (Checker.run ~rules set);
  Alcotest.(check (pair int int)) "first call: each view once" (1, 1)
    (!names_computed, !sizes_computed);
  ignore (Checker.run ~rules set);
  Alcotest.(check (pair int int)) "next call: computed again" (2, 2)
    (!names_computed, !sizes_computed);
  ignore (Checker.run_by_rule ~rules set);
  Alcotest.(check (pair int int)) "grouped by rule: one walk too" (3, 3)
    (!names_computed, !sizes_computed);
  ignore (Checker.run ~rules:[ rule "A" names ] set);
  ignore (Checker.run ~rules:[ rule "C" names ] set);
  Alcotest.(check int) "one rule per call: once per call" 5 !names_computed

let suite =
  [
    Alcotest.test_case "a view is computed once per call" `Quick
      test_view_once_per_call;
    Alcotest.test_case "one walk equals one rule per call" `Slow
      test_one_walk_equals_one_rule_per_call;
  ]
