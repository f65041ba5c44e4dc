module Process_bench = Conferr.Process_bench
module Rng = Conferr_util.Rng

let run ?(experiments = 10) ~sut ~config tasks =
  match
    Process_bench.run ~rng:(Rng.create 21) ~experiments ~sut ~config ~tasks ()
  with
  | Ok t -> t
  | Error msg -> Alcotest.failf "benchmark failed: %s" msg

(* The paper's process benchmark: postgres, then mysql. *)
let paper = lazy (Conferr.Paper.process_benchmark ~seed:21 ~experiments:10 ())

let paper_result name =
  List.find (fun (t : Process_bench.t) -> t.sut_name = name) (Lazy.force paper)

(* The overall detection percentage [render] prints. *)
let overall_percent t =
  let text = Process_bench.render t in
  let needle = "overall detection " in
  let rec find i =
    if String.sub text i (String.length needle) = needle then i + String.length needle
    else find (i + 1)
  in
  let start = find 0 in
  int_of_string (String.sub text start (String.index_from text start '%' - start))

let pg_config = ("postgresql.conf", Suts.Mini_pg.full_config)

let test_runs_all_tasks () =
  let t = paper_result "postgres" in
  Alcotest.(check int) "one result per task" 4
    (List.length t.Process_bench.task_results);
  List.iter
    (fun (r : Process_bench.task_result) ->
      Alcotest.(check int) "all experiments ran" 10 r.injections;
      Alcotest.(check bool) "detected bounded" true (r.detected <= r.injections))
    t.Process_bench.task_results

let test_missing_directive_zero_injections () =
  let t =
    run ~sut:Suts.Mini_pg.sut ~config:pg_config
      [ { Process_bench.directive = "not_in_the_file"; new_value = "1" } ]
  in
  match t.Process_bench.task_results with
  | [ r ] -> Alcotest.(check int) "zero injections" 0 r.Process_bench.injections
  | _ -> Alcotest.fail "expected one result"

let test_invalid_task_rejected () =
  match
    Process_bench.run ~rng:(Rng.create 1) ~sut:Suts.Mini_pg.sut ~config:pg_config
      ~tasks:[ { Process_bench.directive = "max_connections"; new_value = "zero" } ]
      ()
  with
  | Error msg ->
    Alcotest.(check bool) "explains" true
      (Conferr_util.Strutil.contains_substring ~needle:"not a valid edit" msg)
  | Ok _ -> Alcotest.fail "an invalid edit is a benchmark bug, not a fault"

let test_detection_rate () =
  let t = paper_result "postgres" in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 t.Process_bench.task_results in
  let detected = sum (fun r -> r.Process_bench.detected)
  and injected = sum (fun r -> r.Process_bench.injections) in
  Alcotest.(check int) "detected over injected, in percent"
    (int_of_string (Printf.sprintf "%.0f" (100. *. float detected /. float injected)))
    (overall_percent t)

let test_postgres_beats_mysql () =
  (* the §5.5 conclusion holds under the process benchmark too *)
  Alcotest.(check bool) "postgres more resilient" true
    (overall_percent (paper_result "postgres") > overall_percent (paper_result "mysql"))

let test_render () =
  let t =
    run ~sut:Suts.Mini_pg.sut ~config:pg_config
      [ { Process_bench.directive = "max_connections"; new_value = "200" } ]
  in
  let text = Process_bench.render t in
  Alcotest.(check bool) "mentions the task" true
    (Conferr_util.Strutil.contains_substring ~needle:"max_connections" text)

let suite =
  [
    Alcotest.test_case "runs all tasks" `Quick test_runs_all_tasks;
    Alcotest.test_case "missing directive" `Quick test_missing_directive_zero_injections;
    Alcotest.test_case "invalid task rejected" `Quick test_invalid_task_rejected;
    Alcotest.test_case "detection rate" `Quick test_detection_rate;
    Alcotest.test_case "postgres beats mysql" `Quick test_postgres_beats_mysql;
    Alcotest.test_case "render" `Quick test_render;
  ]
