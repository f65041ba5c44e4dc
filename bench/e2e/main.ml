(* The end-to-end benchmark of ConfErr (README.md).

     bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1

   --trace 0 drives the real `conferr` binary as a black box and reports
   the end-to-end metrics; --trace 1 reports the per-layer metrics from a
   traced run.  Both check the program's outputs.  The last line of
   stdout is one JSON object {correct, attempted, failed, metrics}; a
   table goes to stderr.  Metric names and units come from BENCHMARK.json. *)

module Json = Conferr_obsv.Json

type spec = { name : string; unit_ : string }

let specs bench key =
  match Json.member key bench with
  | Some (Json.Arr items) ->
    List.map
      (fun m ->
        let field k = Option.bind (Json.member k m) Json.str in
        match (field "name", field "unit") with
        | Some name, Some unit_ -> { name; unit_ }
        | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
      items
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

(* The metrics BENCHMARK.json lists under [key], in its order; a listed
   metric the run did not produce, or produced as nan, is an error. *)
let result_line ~bench ~key ~attempted ~failed metrics =
  let values =
    List.map
      (fun s ->
        match List.assoc_opt s.name metrics with
        | Some v when Float.is_finite v -> (s, v)
        | Some _ -> failwith (s.name ^ " could not be computed in this run")
        | None -> failwith (s.name ^ " is listed in BENCHMARK.json but not measured"))
      (specs bench key)
  in
  ( values,
    Json.to_string
      (Json.Obj
         [
           ("correct", Json.Bool (failed = 0));
           ("attempted", Json.Num (float_of_int attempted));
           ("failed", Json.Num (float_of_int failed));
           ( "metrics",
             Json.Obj
               (List.map
                  (fun (s, v) ->
                    ( s.name,
                      Json.Obj [ ("value", Json.Num v); ("unit", Json.Str s.unit_) ] ))
                  values) );
         ]) )

(* Run one workload; its problems and the result line. *)
let report ~bench ~workload ~trace ~seed ~seconds =
  let kind =
    match List.assoc_opt workload Workloads.all with
    | Some k -> k
    | None ->
      failwith
        (Printf.sprintf "unknown workload %S (one of: %s)" workload
           (String.concat ", " (List.map fst Workloads.all)))
  in
  let root = Sys.getcwd () in
  let ctx =
    {
      Cli.conferr = Filename.concat root "_build/default/bin/main.exe";
      reference = Filename.concat root "_build/default/bench/e2e/reference.exe";
      dir =
        Files.fresh_dir
          (Filename.concat root
             (Printf.sprintf ".bench_work/%s-trace%d" workload (Bool.to_int trace)));
      expected = Files.read_json (Filename.concat root "bench/e2e/expected.json");
    }
  in
  Files.mkdir_p (Filename.concat ctx.dir "journals");
  let r, metrics, key =
    if trace then
      let r, m = Traced.run ctx kind ~seed ~seconds in
      (r, m, "per_layer")
    else
      (* the daemon's reference runs on the daemon's CPU (loadgen.ml) *)
      let cpu =
        match kind with Workloads.Serve _ -> Lazy.force Proc.spare_cpu | _ -> None
      in
      let r =
        Workloads.run ctx kind
          ~speed:(Speed.create ?cpu ~program:ctx.reference ())
          ~seed ~seconds ~setup_reps:15
      in
      (r, Workloads.metrics r, "end_to_end")
  in
  let problems = List.concat r.ops in
  let values, line =
    result_line ~bench ~key ~attempted:(List.length r.ops)
      ~failed:(List.length (List.filter (( <> ) []) r.ops))
      metrics
  in
  Printf.eprintf
    "\n%s (seed %d, %g s, trace %d): %d campaigns, %d scenarios over %.2f s\n"
    workload seed seconds (Bool.to_int trace) (List.length r.samples) r.scenarios
    r.busy_s;
  if r.note <> "" then prerr_endline r.note;
  List.iter (fun (s, v) -> Printf.eprintf "  %-34s %14.4f %s\n" s.name v s.unit_) values;
  List.iter (fun p -> prerr_endline ("CHECK FAILED: " ^ p)) problems;
  (problems, line)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. in
  let trace = ref 0 and quick = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload to run (README.md)");
      ("--seed", Arg.Set_int seed, "N  seed of every generated input (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1: traced run, per-layer metrics (default 0)");
      ("--quick", Arg.Set quick, " smoke: every workload, untraced and traced, briefly");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bash bench/e2e/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1] | --quick";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  try
    let bench = Files.read_json "BENCHMARK.json" in
    if !quick then begin
      let problems =
        List.concat_map
          (fun (workload, _) ->
            List.concat_map
              (fun trace ->
                let problems, line =
                  report ~bench ~workload ~trace ~seed:!seed ~seconds:0.3
                in
                print_endline line;
                problems)
              [ false; true ])
          Workloads.all
      in
      if problems <> [] then exit 1
    end
    else if !workload = "" then raise (Arg.Bad "--workload is required")
    else if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1")
    else if !seed < 0 then raise (Arg.Bad "--seed must be non-negative")
    else
      print_endline
        (snd
           (report ~bench ~workload:!workload ~trace:(!trace = 1) ~seed:!seed
              ~seconds:!seconds))
  with
  | Arg.Bad msg | Failure msg | Sys_error msg ->
    prerr_endline ("bench: " ^ msg);
    exit 1
  | Unix.Unix_error (e, f, a) ->
    Printf.eprintf "bench: %s(%s): %s\n" f a (Unix.error_message e);
    exit 1
