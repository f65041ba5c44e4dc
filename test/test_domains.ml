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

let () =
  Alcotest.run "domains"
    [
      ( "generation",
        [
          Alcotest.test_case "two domains equal a sequential run" `Quick
            test_parallel_equals_sequential;
        ] );
    ]
