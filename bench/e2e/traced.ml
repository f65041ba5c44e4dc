(* The traced run: the workload's end-to-end loop for half the time,
   then the in-process ledger (ledger.ml) over the same campaigns for the
   other half; the per-layer metrics come from the ledger's spans, the
   residual and the load generator's lateness from comparing the two. *)

module W = Workloads

(* Spans that only group the benchmark's own work; the others time a
   call into the program. *)
let bench_span name =
  List.exists
    (fun prefix -> String.starts_with ~prefix name)
    [ "phase."; "unit"; "stage."; "replay." ]

(* The ledger span that takes the same path as an end-to-end campaign. *)
let ledger_path (s : W.sample) =
  match s.cmd with
  | "profile" -> "stage.campaign"
  | "serve" -> "stage.serve"
  | cmd -> "replay." ^ cmd

(* Runs of `conferr profile --jobs 2` that die: two worker domains can
   force the same lazy value at once (README.md). *)
let jobs2_failed_ratio ctx ~runs =
  let failed =
    List.init runs (fun i ->
        Proc.run ctx.Cli.conferr
          [
            "profile"; "--sut"; "postgres"; "--jobs"; "2"; "--journal";
            Filename.concat ctx.Cli.dir (Printf.sprintf "canary-%d.jsonl" i);
          ])
    |> List.filter (fun (r : Proc.run) -> r.code <> 0)
  in
  float_of_int (List.length failed) /. float_of_int runs

let print_layers layers =
  Printf.eprintf "\n%-32s %7s %11s %11s %10s %10s\n" "span (in-process ledger)" "calls"
    "total ms" "self ms" "p50 ms" "p90 ms";
  List.iter
    (fun (l : Spans.layer) ->
      Printf.eprintf "%-32s %7d %11.2f %11.2f %10.4f %10.4f\n" l.name l.calls l.total_ms
        l.self_ms
        (Stats.quantile 0.5 l.durs_ms)
        (Stats.quantile 0.9 l.durs_ms))
    layers

(* Residual: an end-to-end campaign's time minus the median in-process
   time of the same path on the same SUT, averaged over the campaigns. *)
let residual_ms spans (samples : W.sample list) =
  let path_ms = Hashtbl.create 64 in
  List.iter
    (fun (s : Spans.span) ->
      Hashtbl.add path_ms
        (s.name, List.hd (String.split_on_char '/' s.cid))
        (Int64.to_float (Spans.dur_ns s) /. 1e6))
    (Spans.subtree spans "phase.ledger");
  let residuals =
    List.filter_map
      (fun (s : W.sample) ->
        match Hashtbl.find_all path_ms (ledger_path s, s.sut) with
        | [] -> None
        | ms -> Some (Proc.ms_between s.start_ns s.stop_ns -. Stats.median ms))
      samples
  in
  Stats.sum residuals /. float_of_int (List.length residuals)

let run ctx kind ~seed ~seconds =
  let spans = Spans.create () in
  let half = seconds /. 2. in
  let r =
    (* no speed reference: its runs between requests would count as the
       load generator's lateness *)
    Spans.with_span spans "phase.e2e" (fun () ->
        W.run ctx kind ~speed:(Speed.off ()) ~seed ~seconds:half ~setup_reps:1)
  in
  List.iter
    (fun (s : W.sample) ->
      let cid = Printf.sprintf "%s/%d" s.sut s.seed in
      let id = Spans.add spans ~cid ("e2e." ^ s.cmd) s.start_ns s.stop_ns in
      ignore (Spans.add spans ~parent:id ~cid "e2e.first_result" s.start_ns s.first_ns))
    r.samples;
  let l =
    Ledger.create spans ~dir:(Files.fresh_dir (Filename.concat ctx.Cli.dir "ledger"))
  in
  (* each (SUT, seed) once, in the order the end-to-end loop met them *)
  let inputs =
    List.fold_left
      (fun acc (s : W.sample) ->
        if List.mem (s.sut, s.seed) acc then acc else (s.sut, s.seed) :: acc)
      [] r.samples
  in
  Spans.with_span spans "phase.ledger" (fun () ->
      Ledger.run l ~inputs:(List.rev inputs) ~until_ns:(W.deadline half));
  let jobs2 = jobs2_failed_ratio ctx ~runs:20 in
  let layers = Spans.layers spans ~root:"phase.ledger" in
  let get name =
    match Spans.find layers name with
    | Some l -> l
    | None -> failwith ("no " ^ name ^ " span")
  in
  let total name = (get name).total_ms in
  let mean_us name = 1e3 *. total name /. float_of_int (get name).calls in
  let q_us p name = 1e3 *. Stats.quantile p (get name).durs_ms in
  let q_ms p name = Stats.quantile p (get name).durs_ms in
  let per n name = 1e3 *. total name /. float_of_int n in
  let ratio a b = float_of_int a /. float_of_int b in
  let wall = total "phase.ledger" in
  let layer_self =
    List.fold_left
      (fun s (l : Spans.layer) -> if bench_span l.name then s else s +. l.self_ms)
      0. layers
  in
  let ledger_spans = List.fold_left (fun n (l : Spans.layer) -> n + l.calls) 0 layers in
  let trace_file = Filename.concat ctx.Cli.dir "trace.json" in
  Spans.write_chrome spans trace_file;
  (* the program's own trace validator must accept the file *)
  let check = Proc.run ctx.Cli.conferr [ "report"; "--check-trace"; trace_file ] in
  let trace_ok = if check.code = 0 then [] else [ "trace.json rejected: " ^ check.err ] in
  print_layers layers;
  Printf.eprintf "%d ledger units; chrome trace: %s\n" l.units trace_file;
  ( { r with ops = r.ops @ [ trace_ok ] },
    [
      ("errgen.generate_us_per_scenario", per l.generated "errgen.generate");
      ("errgen.apply_us", mean_us "errgen.apply");
      ("errgen.not_applicable_ratio", ratio l.not_applicable l.piecewise);
      ("engine.serialize_us", mean_us "engine.serialize");
      ("engine.parse_us", mean_us "engine.parse");
      ("sandbox.boot_and_test_us.p50", q_us 0.5 "sandbox.boot_and_test");
      ("sandbox.boot_and_test_us.p90", q_us 0.9 "sandbox.boot_and_test");
      ("sandbox.crashed", ratio l.crashed (get "sandbox.boot_and_test").calls);
      ( "exec.overhead_us_per_scenario",
        (total "exec.run_from.bare" -. total "errgen.apply" -. total "engine.serialize"
        -. total "sandbox.boot_and_test")
        *. 1e3 /. float_of_int l.piecewise );
      ("exec.jobs2_failed_ratio", jobs2);
      ("journal.append_us.v2", mean_us "journal.append.v2");
      ("journal.append_us.v3", mean_us "journal.append.v3");
      ("journal.checkpoint_ms", mean_us "journal.checkpoint" /. 1e3);
      ("journal.load_us_per_entry", per l.loaded "journal.load");
      ("journal.bytes_per_entry", ratio l.journal_bytes l.journal_entries);
      ("http.submit_ack_ms.p50", q_ms 0.5 "serve.submit");
      ("http.submit_ack_ms.p90", q_ms 0.9 "serve.submit");
      ("serve.queue_wait_ms.p50", q_ms 0.5 "serve.queue_wait");
      ("serve.queue_wait_ms.p90", q_ms 0.9 "serve.queue_wait");
      ("serve.run_ms.p50", q_ms 0.5 "serve.run");
      ("serve.refused", float_of_int r.refused);
      ("lint.scan_us_per_entry", per l.scanned "lint.scan");
      ("infer.run_us_per_entry", per l.mined "infer.run");
      ("repair.validate_us", per l.validated "repair.run");
      ("repair.candidates_per_target", ratio l.validated l.targets);
      ("repair.useful_ratio", ratio l.repaired l.validated);
      ( "obsv.overhead_pct",
        100. *. (total "exec.run_from.observed" /. total "exec.run_from.bare" -. 1.) );
      ("loadgen.late_p90_ms", Stats.quantile 0.9 r.late_ms);
      ("trace.coverage", layer_self /. wall);
      ("cli.residual_ms", residual_ms spans r.samples);
      ( "trace.overhead_pct",
        100. *. float_of_int ledger_spans *. Spans.cost_ns () /. (wall *. 1e6) );
    ] )
