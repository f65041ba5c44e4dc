module Config_set = Conftree.Config_set
module Span = Conferr_obsv.Span

let src = Logs.Src.create "conferr.engine" ~doc:"ConfErr injection engine"

module Log = (val Logs.src_log src : Logs.LOG)

let ( let* ) = Result.bind

let parse_config (sut : Suts.Sut.t) files =
  List.fold_left
    (fun acc (file, fmt) ->
      let* set = acc in
      match List.assoc_opt file files with
      | None -> Error (Printf.sprintf "no content provided for %S" file)
      | Some text ->
        (match fmt.Formats.Registry.parse text with
         | Ok tree -> Ok (Config_set.add set file tree)
         | Error e ->
           Error
             (Printf.sprintf "parsing %S: %s" file (Formats.Parse_error.to_string e))))
    (Ok Config_set.empty) sut.Suts.Sut.config_files

let parse_default_config (sut : Suts.Sut.t) =
  parse_config sut sut.Suts.Sut.default_config

let serialize_config (sut : Suts.Sut.t) set =
  List.fold_left
    (fun acc (file, fmt) ->
      let* files = acc in
      match Config_set.find set file with
      | None -> Error (Printf.sprintf "mutated configuration lost file %S" file)
      | Some tree ->
        (match fmt.Formats.Registry.serialize tree with
         | Ok text -> Ok (files @ [ (file, text) ])
         | Error msg -> Error (Printf.sprintf "serializing %S: %s" file msg)))
    (Ok []) sut.Suts.Sut.config_files

exception Out_of_fuel of int

(* Mutation application and serialization: every way this can fail is a
   scenario the format cannot express, including a mutation that raises
   (a generator bug must not take the campaign down). *)
let materialize ?(probe = Span.null) ~sut ~base (s : Errgen.Scenario.t) =
  match probe.Span.wrap Span.Generate (fun () -> s.apply base) with
  | exception exn ->
    Error (Printf.sprintf "scenario raised: %s" (Printexc.to_string exn))
  | Error msg -> Error msg
  | Ok mutated ->
    probe.Span.wrap Span.Serialize (fun () -> serialize_config sut mutated)

(* A SUT that raises is a SUT that crashed: classify it like the real
   tool would classify a daemon dying on a faulty configuration, rather
   than letting the exception kill its worker or the whole campaign.
   The backtrace is read first, before anything else can raise. *)
let crashed ~phase exn =
  let backtrace = Printexc.get_backtrace () in
  let cause =
    match exn with
    | Stack_overflow -> Outcome.Stack_overflow_crash
    | Out_of_memory -> Outcome.Out_of_memory_crash
    | Out_of_fuel budget -> Outcome.Fuel_exhausted budget
    | exn -> Outcome.Uncaught (Printexc.to_string exn)
  in
  Outcome.Crashed { cause; phase; backtrace }

(* The probe marks the pipeline phases for the observability layer
   (doc/obsv.md); [Span.null] makes every wrap a plain call, so the
   untraced path is unchanged. *)
let boot_and_test ?(probe = Span.null) (sut : Suts.Sut.t) files =
  (* Backtrace recording is a per-domain flag and a spawned worker
     domain starts with it off, so it is switched on per call.  Not at
     module initialisation: that would also record during scenario
     generation. *)
  Printexc.record_backtrace true;
  match probe.Span.wrap Span.Spawn (fun () -> sut.Suts.Sut.boot files) with
  | exception exn -> crashed ~phase:Outcome.Boot exn
  | Error msg -> Outcome.Startup_failure msg
  | Ok instance ->
    (match
       probe.Span.wrap Span.Run (fun () ->
           let results = instance.Suts.Sut.run_tests () in
           (* a shutdown script that itself fails must not override the
              test verdict — the experiment already has its answer *)
           (try instance.Suts.Sut.shutdown () with _ -> ());
           results)
     with
     | exception exn -> crashed ~phase:Outcome.Test exn
     | results ->
       probe.Span.wrap Span.Classify (fun () ->
           let failures =
             List.filter_map
               (fun (r : Suts.Sut.test_result) ->
                 if r.passed then None
                 else Some (Printf.sprintf "%s: %s" r.test_name r.detail))
               results
           in
           if failures = [] then Outcome.Passed else Outcome.Test_failure failures))

let run_scenario ?probe ~sut ~base (scenario : Errgen.Scenario.t) =
  match materialize ?probe ~sut ~base scenario with
  | Error msg -> Outcome.Not_applicable msg
  | Ok files -> boot_and_test ?probe sut files

let run_from ~sut ~base ~scenarios () =
  Log.info (fun m ->
      m "running %d scenarios against %s" (List.length scenarios)
        sut.Suts.Sut.sut_name);
  let entries =
    List.map
      (fun (s : Errgen.Scenario.t) ->
        let outcome = run_scenario ~sut ~base s in
        Log.debug (fun m ->
            m "%s [%s] %s" s.id (Outcome.label outcome) s.description);
        {
          Profile.scenario_id = s.id;
          class_name = s.class_name;
          description = s.description;
          outcome;
        })
      scenarios
  in
  Profile.make ~sut_name:sut.Suts.Sut.sut_name entries

type config_error = { sut_name : string; message : string }

let config_error_to_string { sut_name; message } =
  Printf.sprintf "default configuration of %s does not parse: %s" sut_name message
