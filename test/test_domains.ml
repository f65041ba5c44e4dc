(* Domain safety of faultload generation, in a process of its own: a
   value computed once per process (a module-level memo, a Lazy) is
   first computed here, by two domains at once.  That is the bug class
   behind the `--jobs 2` CamlinternalLazy.Undefined canary, and the
   reason the typo pools live in a table local to each
   Campaign.typo_scenarios call. *)

module Rng = Conferr_util.Rng

let suts = [ Suts.Mini_pg.sut; Suts.Mini_bind.sut ]

let faultload sut =
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok base ->
    Conferr.Campaign.typo_scenarios ~rng:(Rng.create 42)
      ~faultload:Conferr.Campaign.paper_faultload sut base
    |> List.map (fun (s : Errgen.Scenario.t) -> (s.id, s.class_name, s.description))

let test_parallel_equals_sequential () =
  (* both domains wait for each other, then generate at the same time *)
  let ready = Atomic.make 0 in
  let start sut () =
    Atomic.incr ready;
    while Atomic.get ready < List.length suts do
      Domain.cpu_relax ()
    done;
    faultload sut
  in
  let parallel = List.map (fun sut -> Domain.spawn (start sut)) suts |> List.map Domain.join in
  let sequential = List.map faultload suts in
  Alcotest.(check (list (list (triple string string string))))
    "postgres and bind faultloads" sequential parallel

(* A layout's neighbour table is filled on first use: two domains look
   every byte up at once on one fresh layout, and must read what a
   sequential run on another fresh layout reads. *)
let test_neighbour_table () =
  let fresh () =
    Keyboard.Layout.make ~name:"qwerty"
      [
        (0, 0.0, "`1234567890-=", "~!@#$%^&*()_+");
        (1, 1.5, "qwertyuiop[]\\", "QWERTYUIOP{}|");
        (2, 1.75, "asdfghjkl;'", "ASDFGHJKL:\"");
        (3, 2.25, "zxcvbnm,./", "ZXCVBNM<>?");
      ]
  in
  let lookups layout = List.init 256 (fun code -> Keyboard.Layout.neighbors layout (Char.chr code)) in
  let shared = fresh () and ready = Atomic.make 0 in
  let start () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    lookups shared
  in
  let parallel = List.map Domain.join (List.init 2 (fun _ -> Domain.spawn start)) in
  let sequential = lookups (fresh ()) in
  List.iter (Alcotest.(check (list (list char))) "neighbours of every byte" sequential) parallel

(* The same for lint: `gaps`, `infer` and `repair` lint on pool domains,
   and a rule's per-set views must stay local to its checker call.  Two
   domains lint the seed-42 mutants of bind and mysql at once with the
   deep rule sets. *)
let lint_findings (sut : Suts.Sut.t) =
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok base ->
    let rules =
      Suts.Dataflow_rules.deepen sut.sut_name
        (Option.get (Suts.Lint_rules.for_sut sut.sut_name))
    in
    Conferr.Faultload.journal_scenarios ~seed:42 sut base
    |> List.filter_map (fun (sc : Errgen.Scenario.t) ->
           match sc.apply base with
           | Error _ -> None
           | Ok mutated -> (
             match Conferr.Engine.serialize_config sut mutated with
             | Error _ -> None
             | Ok files -> Result.to_option (Conferr.Engine.parse_config sut files)))
    |> List.map (fun set ->
           Conferr_lint.Checker.render_text
             (Conferr_lint.Checker.run ~nearest:Conferr.Suggest.nearest ~rules set))

let test_lint_parallel_equals_sequential () =
  let suts = [ Suts.Mini_bind.sut; Suts.Mini_mysql.sut ] in
  let ready = Atomic.make 0 in
  let start sut () =
    Atomic.incr ready;
    while Atomic.get ready < List.length suts do
      Domain.cpu_relax ()
    done;
    lint_findings sut
  in
  let parallel = List.map (fun sut -> Domain.spawn (start sut)) suts |> List.map Domain.join in
  let sequential = List.map lint_findings suts in
  Alcotest.(check (list (list string))) "bind and mysql findings" sequential parallel

(* The same for boot: campaigns boot on pool domains, and the name
   tables a simulator builds once must be shared without a race.  Two
   domains boot the seed-42 apache and bind mutants at once. *)
let boot_results (sut : Suts.Sut.t) =
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok base ->
    Conferr.Campaign.typo_scenarios ~rng:(Rng.create 42)
      ~faultload:Conferr.Campaign.paper_faultload sut base
    |> List.filter_map (fun (sc : Errgen.Scenario.t) ->
           match sc.apply base with
           | Error _ -> None
           | Ok mutated -> Result.to_option (Conferr.Engine.serialize_config sut mutated))
    |> List.map (fun configs ->
           match sut.boot configs with
           | Error msg -> "refused: " ^ msg
           | Ok instance ->
             String.concat "; "
               (List.map
                  (fun (r : Suts.Sut.test_result) ->
                    Printf.sprintf "%s %b %s" r.test_name r.passed r.detail)
                  (instance.run_tests ())))

let test_boot_parallel_equals_sequential () =
  let suts = [ Suts.Mini_apache.sut; Suts.Mini_bind.sut ] in
  let ready = Atomic.make 0 in
  let start sut () =
    Atomic.incr ready;
    while Atomic.get ready < List.length suts do
      Domain.cpu_relax ()
    done;
    boot_results sut
  in
  let parallel = List.map (fun sut -> Domain.spawn (start sut)) suts |> List.map Domain.join in
  let sequential = List.map boot_results suts in
  Alcotest.(check (list (list string))) "apache and bind boots" sequential parallel

let () =
  Alcotest.run "domains"
    [
      ( "generation",
        [
          Alcotest.test_case "two domains equal a sequential run" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "two domains fill one neighbour table" `Quick
            test_neighbour_table;
        ] );
      ( "lint",
        [
          Alcotest.test_case "two domains equal a sequential run" `Quick
            test_lint_parallel_equals_sequential;
        ] );
      ( "boot",
        [
          Alcotest.test_case "two domains equal a sequential run" `Quick
            test_boot_parallel_equals_sequential;
        ] );
    ]
