(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5), then times the experiment drivers and the
   per-injection pipeline with Bechamel.

     dune exec bench/main.exe

   Absolute numbers differ from the paper's (the SUTs are in-process
   simulators, not daemons on a 2008 workstation); the tables' shapes are
   the reproduction target.  The paper reports 2.2 s per injection for
   MySQL, 6 s for Postgres and 1.1 s for Apache — dominated by process
   start-up; the "injection/..." rows below are the same pipeline without
   the process boundary. *)

open Bechamel
open Toolkit
module Json = Conferr_obsv.Json

let seed = 42

(* Every measured section writes its numbers machine-readable to a
   tracked BENCH_<section>.json next to the human-readable stdout table,
   so regressions show up in review as artifact diffs.  Sections a host
   cannot measure honestly record {"skipped": true} with the reason
   instead of omitting the file. *)
let write_artifact path obj =
  let oc = open_out path in
  output_string oc (Json.to_string obj);
  output_char oc '\n';
  close_out oc;
  Printf.printf "  wrote %s\n" path

(* the middle element; the upper one of an even count *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let skipped_artifact path ~bench ~reason =
  write_artifact path
    (Json.Obj
       [
         ("bench", Json.Str bench);
         ("skipped", Json.Bool true);
         ("reason", Json.Str reason);
       ])

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the evaluation                                    *)
(* ------------------------------------------------------------------ *)

let print_tables () =
  print_endline (Conferr.Paper.run_all ~seed ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations for the design choices DESIGN.md calls out                 *)
(* ------------------------------------------------------------------ *)

let overall_rate (t : Conferr.Compare.t) =
  let detected, total =
    List.fold_left
      (fun (d, n) (r : Conferr.Compare.directive_result) ->
        (d + r.detected, n + r.experiments))
      (0, 0) t.Conferr.Compare.per_directive
  in
  if total = 0 then 0. else 100. *. float_of_int detected /. float_of_int total

let compare_with sampler sut config =
  match
    Conferr.Compare.run
      ~rng:(Conferr_util.Rng.create seed)
      ~experiments:10 ~sampler ~sut ~config ()
  with
  | Ok t -> t
  | Error msg -> failwith msg

let print_ablations () =
  print_endline "=== Ablation 1: typo sampling policy (value-typo detection rate) ===\n";
  (* variant-uniform weights substitution/insertion-heavy slips; the
     kind-first policy gives omissions and transpositions equal billing,
     which keeps more typos numerically valid *)
  let policies =
    [
      ("kind-first (paper §5.5 driver)", fun rng w -> Errgen.Typo.random_kind_first rng w);
      ("variant-uniform (Table 1 driver)", fun rng w -> Errgen.Typo.random_any rng w);
    ]
  in
  List.iter
    (fun (name, sampler) ->
      let pg =
        compare_with sampler Suts.Mini_pg.sut
          ("postgresql.conf", Suts.Mini_pg.full_config)
      in
      let mysql =
        compare_with sampler Suts.Mini_mysql.sut ("my.cnf", Suts.Mini_mysql.full_config)
      in
      Printf.printf "  %-34s postgres %5.1f%%   mysql %5.1f%%\n" name (overall_rate pg)
        (overall_rate mysql))
    policies;
  print_newline ();
  print_endline
    "=== Ablation 2: keyboard realism (substitution-only detection rate) ===\n";
  (* keyboard-adjacent substitutions frequently swap a digit for a
     neighbouring digit (accepted); a keyboard-oblivious fuzzer draws
     letters far more often and overestimates detection *)
  let subs_samplers =
    [
      ( "adjacent-key substitutions",
        fun rng w ->
          Conferr_util.Rng.pick_opt rng
            (Errgen.Typo.variants Errgen.Typo.Substitution w) );
      ( "uniform substitutions (no keyboard)",
        fun rng w -> Conferr_util.Rng.pick_opt rng (Errgen.Typo.uniform_substitutions w)
      );
    ]
  in
  List.iter
    (fun (name, sampler) ->
      let pg =
        compare_with sampler Suts.Mini_pg.sut
          ("postgresql.conf", Suts.Mini_pg.full_config)
      in
      let mysql =
        compare_with sampler Suts.Mini_mysql.sut ("my.cnf", Suts.Mini_mysql.full_config)
      in
      Printf.printf "  %-34s postgres %5.1f%%   mysql %5.1f%%\n" name (overall_rate pg)
        (overall_rate mysql))
    subs_samplers;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Executor scaling: jobs 2 against jobs 1                              *)
(* ------------------------------------------------------------------ *)

(* A bare [Executor.run_from] (no journal, observers off) over each
   SUT's seed-42 paper faultload at jobs 1 and 2, and at jobs 4 on
   apache: more domains than a two-core host has.  The paper's
   campaigns are embarrassingly parallel (each injection is pure and
   independent), so on an N-core machine jobs 1 over jobs J approaches
   min(J, N).  Every round runs each job count once and odd rounds
   reverse the order, so no count always runs warm; the section records
   the median of [rounds] wall times per count. *)
let print_executor_scaling () =
  print_endline "=== Executor scaling (bare run_from, seed-42 paper faultloads) ===\n";
  if Conferr_pool.recommended_jobs () = 1 then begin
    (* every OCaml 5 minor collection synchronizes all domains, so extra
       domains without extra cores measure GC lockstep, not scaling — a
       recorded "slowdown" here would be an artifact of the host, not of
       the executor *)
    print_endline
      "  skipped: single-core host (recommended_jobs = 1) — oversubscribed";
    print_endline
      "  domains only measure GC synchronization overhead, not scaling.";
    print_endline "  Re-run on a multi-core machine for speedup numbers.";
    skipped_artifact "BENCH_executor.json" ~bench:"executor-scaling"
      ~reason:
        "single-core host (recommended_jobs = 1): extra domains measure GC \
         synchronization, not scaling";
    print_newline ()
  end
  else begin
    let rounds = 21 in
    let cores = Domain.recommended_domain_count () in
    let campaign ((sut : Suts.Sut.t), jobs_counts) =
      let base =
        match Conferr.Engine.parse_default_config sut with
        | Ok base -> base
        | Error msg -> failwith msg
      in
      let scenarios =
        Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
          ~faultload:Conferr.Campaign.paper_faultload sut base
      in
      let time jobs =
        let settings = { Conferr_exec.Executor.default_settings with jobs } in
        let t0 = Unix.gettimeofday () in
        ignore
          (Conferr_exec.Executor.run_from ~settings ~on_event:ignore ~sut ~base
             ~scenarios ());
        Unix.gettimeofday () -. t0
      in
      (sut.sut_name, List.length scenarios, jobs_counts, time)
    in
    let campaigns =
      List.map campaign
        [
          (Suts.Mini_apache.sut, [ 1; 2; 4 ]);
          (Suts.Mini_bind.sut, [ 1; 2 ]);
          (Suts.Mini_djbdns.sut, [ 1; 2 ]);
          (Suts.Mini_pg.sut, [ 1; 2 ]);
          (Suts.Mini_mysql.sut, [ 1; 2 ]);
          (Suts.Mini_appserver.sut, [ 1; 2 ]);
        ]
    in
    (* warm up (page in the SUT code paths) before timing *)
    List.iter (fun (_, _, counts, time) -> List.iter (fun j -> ignore (time j)) counts) campaigns;
    (* each round times every campaign at every count, so a slow spell
       of the shared host lands on all of them alike *)
    let samples =
      List.init rounds (fun round ->
          List.map
            (fun (_, _, counts, time) ->
              let order = if round mod 2 = 0 then counts else List.rev counts in
              List.map (fun jobs -> (jobs, time jobs)) order)
            campaigns)
    in
    let results =
      List.mapi
        (fun k (name, scenarios, counts, _) ->
          let ms jobs =
            1e3 *. median (List.map (fun round -> List.assoc jobs (List.nth round k)) samples)
          in
          let sequential = ms 1 in
          Printf.printf "  %-10s %4d scenarios  jobs 1 %7.2f ms" name scenarios sequential;
          let runs =
            List.map
              (fun jobs ->
                let t = ms jobs in
                if jobs > 1 then
                  Printf.printf "  jobs %d %7.2f ms (%.2fx)" jobs t (sequential /. t);
                Json.Obj
                  [
                    ("jobs", Json.Num (float_of_int jobs));
                    ("wall_ms", Json.Num t);
                    ("speedup", Json.Num (sequential /. t));
                  ])
              counts
          in
          print_newline ();
          Json.Obj
            [
              ("sut", Json.Str name);
              ("scenarios", Json.Num (float_of_int scenarios));
              ("runs", Json.Arr runs);
            ])
        campaigns
    in
    write_artifact "BENCH_executor.json"
      (Json.Obj
         [
           ("bench", Json.Str "executor-scaling");
           ("seed", Json.Num (float_of_int seed));
           ("cores", Json.Num (float_of_int cores));
           ("rounds", Json.Num (float_of_int rounds));
           ("statistic", Json.Str "median");
           ("suts", Json.Arr results);
         ]);
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* Tracer overhead: executor with observability off vs on              *)
(* ------------------------------------------------------------------ *)

(* Observability is opt-in, so its cost only matters when asked for:
   with --trace/--metrics every scenario adds a span clock (two
   gettimeofday calls per phase), one ring-buffer append, and a few
   mutex-protected registry updates — a fixed cost of a few
   microseconds per scenario, independent of what the scenario does.
   The in-process stub boots in ~5 us, where the paper's daemons take
   1.1-6 s per injection (process start-up dominates, §5.6); dividing
   a fixed microsecond cost by a stub that exists to *elide* the real
   work would measure the stub, not the tracer.  So the SUT under test
   here is mini-postgres with a restart-weighted boot: each boot
   re-parses the rendered config through the real pgconf parser enough
   times to cost a fraction of a millisecond — still three orders of
   magnitude cheaper than the restart it stands in for, which makes
   the measured ratio a conservative upper bound.  Two full executor
   campaigns (best of 3, jobs=1); doc/obsv.md quotes the <5% budget
   this measures. *)
let print_tracer_overhead () =
  print_endline
    "=== Tracer overhead (executor, restart-weighted postgres faultload) ===\n";
  let inner = Suts.Mini_pg.sut in
  let fmt = List.assoc "postgresql.conf" inner.Suts.Sut.config_files in
  let sut =
    {
      inner with
      Suts.Sut.boot =
        (fun files ->
          (match List.assoc_opt "postgresql.conf" files with
          | Some text ->
            for _ = 1 to 200 do
              ignore (fmt.Formats.Registry.parse text)
            done
          | None -> ());
          inner.Suts.Sut.boot files);
    }
  in
  let base =
    match Conferr.Engine.parse_default_config sut with
    | Ok base -> base
    | Error msg -> failwith msg
  in
  let scenarios =
    Conferr.Campaign.typo_scenarios
      ~rng:(Conferr_util.Rng.create seed)
      ~faultload:Conferr.Campaign.paper_faultload sut base
  in
  let campaign settings =
    ignore
      (Conferr_exec.Executor.run_from ~settings
         ~on_event:(fun _ -> ())
         ~sut ~base ~scenarios ())
  in
  let time_loop mk_settings =
    let best = ref infinity in
    for _ = 1 to 3 do
      let settings = mk_settings () in
      let t0 = Unix.gettimeofday () in
      campaign settings;
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let plain_settings () = Conferr_exec.Executor.default_settings in
  let observed_settings () =
    {
      Conferr_exec.Executor.default_settings with
      trace = Some (Conferr_obsv.Trace.create ());
      metrics = Some (Conferr_obsv.Metrics.create ());
    }
  in
  (* warm up both paths before timing *)
  ignore (time_loop plain_settings);
  ignore (time_loop observed_settings);
  let plain = time_loop plain_settings in
  let instrumented = time_loop observed_settings in
  let overhead = 100. *. ((instrumented /. plain) -. 1.) in
  Printf.printf "  scenarios     : %d (best of 3 campaigns, jobs=1)\n"
    (List.length scenarios);
  Printf.printf "  obsv off      : %8.2f ms\n" (plain *. 1e3);
  Printf.printf "  trace+metrics : %8.2f ms   overhead %+.1f%%  (budget <5%%)\n"
    (instrumented *. 1e3) overhead;
  write_artifact "BENCH_tracer.json"
    (Json.Obj
       [
         ("bench", Json.Str "tracer-overhead");
         ("sut", Json.Str "postgres");
         ("seed", Json.Num (float_of_int seed));
         ("scenarios", Json.Num (float_of_int (List.length scenarios)));
         ("plain_s", Json.Num plain);
         ("instrumented_s", Json.Num instrumented);
         ("overhead_pct", Json.Num overhead);
         ("budget_pct", Json.Num 5.);
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Adaptive vs exhaustive signature discovery (lib/adapt)               *)
(* ------------------------------------------------------------------ *)

(* How many SUT runs does each strategy spend to find the distinct
   failure signatures of the paper's typo faultload?  The exhaustive
   campaign executes every scenario; the adaptive loop skips
   byte-identical mutants and stops when discovery plateaus (see
   doc/adapt.md).  Counts, not wall-clock, so the section is meaningful
   on any host. *)
let print_adaptive_discovery () =
  print_endline "=== Adaptive vs exhaustive signature discovery ===\n";
  let rows = ref [] in
  List.iter
    (fun (name, sut) ->
      let base =
        match Conferr.Engine.parse_default_config sut with
        | Ok base -> base
        | Error msg -> failwith msg
      in
      let scenarios =
        Conferr.Campaign.typo_scenarios
          ~rng:(Conferr_util.Rng.create seed)
          ~faultload:Conferr.Campaign.paper_faultload sut base
      in
      let profile = Conferr.Engine.run_from ~sut ~base ~scenarios () in
      let exhaustive_sigs =
        List.length
          (Conferr_exec.Signature.clusters profile.Conferr.Profile.entries)
      in
      let stream =
        Errgen.Gen.of_generator ~rounds:1 ~prefix:"typo" ~seed
          (fun ~rng set ->
            Conferr.Campaign.typo_scenarios ~rng
              ~faultload:Conferr.Campaign.paper_faultload sut set)
          base
      in
      let settings =
        {
          Conferr_adapt.Explore.default_settings with
          exec = { Conferr_exec.Executor.default_settings with campaign_seed = seed };
          batch = 16;
        }
      in
      let r =
        Conferr_adapt.Explore.run_from ~settings ~on_event:(fun _ -> ()) ~sut
          ~base ~stream ()
      in
      Printf.printf
        "  %-10s exhaustive: %3d runs -> %2d signatures | adaptive: %3d runs \
         (%d dup-skipped, %d n/a) -> %2d signatures in %d batches\n"
        name (List.length scenarios) exhaustive_sigs
        r.Conferr_adapt.Explore.executed r.Conferr_adapt.Explore.duplicates
        r.Conferr_adapt.Explore.not_applicable
        (List.length r.Conferr_adapt.Explore.frontier)
        r.Conferr_adapt.Explore.batches;
      rows :=
        Json.Obj
          [
            ("sut", Json.Str name);
            ("exhaustive_runs", Json.Num (float_of_int (List.length scenarios)));
            ("exhaustive_signatures", Json.Num (float_of_int exhaustive_sigs));
            ( "adaptive_runs",
              Json.Num (float_of_int r.Conferr_adapt.Explore.executed) );
            ( "duplicates_skipped",
              Json.Num (float_of_int r.Conferr_adapt.Explore.duplicates) );
            ( "not_applicable",
              Json.Num (float_of_int r.Conferr_adapt.Explore.not_applicable) );
            ( "adaptive_signatures",
              Json.Num
                (float_of_int (List.length r.Conferr_adapt.Explore.frontier)) );
            ("batches", Json.Num (float_of_int r.Conferr_adapt.Explore.batches));
          ]
        :: !rows)
    [ ("postgres", Suts.Mini_pg.sut); ("bind", Suts.Mini_bind.sut) ];
  write_artifact "BENCH_adaptive.json"
    (Json.Obj
       [
         ("bench", Json.Str "adaptive-vs-exhaustive");
         ("seed", Json.Num (float_of_int seed));
         ("suts", Json.Arr (List.rev !rows));
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Lint throughput: Checker.run over stock sets and faultload mutants   *)
(* ------------------------------------------------------------------ *)

(* The gap scan (conferr gaps) lints every mutant of a campaign, so the
   static checker sits on an O(scenarios) path; this section times
   Checker.run over each SUT's parsed stock configuration set (best of
   3 loops of 100 runs) and over every mutant of its seed-42 paper
   faultload, built by apply, serialize and parse as gaps builds it
   (best of 3 passes).  A stock set has no unknown name, so only the
   mutants reach the did-you-mean path.  doc/lint.md points here. *)
let print_lint_throughput () =
  print_endline "=== Lint throughput (stock sets and seed-42 mutants) ===\n";
  let rows = ref [] in
  List.iter
    (fun (name, sut) ->
      let base =
        match Conferr.Engine.parse_default_config sut with
        | Ok base -> base
        | Error msg -> failwith msg
      in
      let rules =
        match Suts.Lint_rules.for_sut name with
        | Some rules -> rules
        | None -> failwith ("no rule set for " ^ name)
      in
      let mutants =
        Conferr.Faultload.journal_scenarios ~seed sut base
        |> List.filter_map (fun (sc : Errgen.Scenario.t) ->
               match sc.apply base with
               | Error _ -> None
               | Ok mutated -> (
                 match Conferr.Engine.serialize_config sut mutated with
                 | Error _ -> None
                 | Ok files -> Result.to_option (Conferr.Engine.parse_config sut files)))
      in
      let nearest = Conferr.Suggest.nearest in
      let check set = ignore (Conferr_lint.Checker.run ~nearest ~rules set) in
      (* best of 3 timed loops after a warm-up, in µs per check *)
      let best_us ~checks loop =
        ignore (loop ());
        let best = ref infinity in
        for _ = 1 to 3 do
          let t0 = Unix.gettimeofday () in
          loop ();
          best := Float.min !best (Unix.gettimeofday () -. t0)
        done;
        !best /. float_of_int checks *. 1e6
      in
      let runs = 100 in
      let per_run_us =
        best_us ~checks:runs (fun () ->
            for _ = 1 to runs do
              check base
            done)
      in
      let mutant_us =
        best_us ~checks:(List.length mutants) (fun () -> List.iter check mutants)
      in
      Printf.printf
        "  %-10s %2d rules  stock %8.1f us / check  %4d mutants %8.1f us / check\n"
        name (List.length rules) per_run_us (List.length mutants) mutant_us;
      rows :=
        Json.Obj
          [
            ("sut", Json.Str name);
            ("rules", Json.Num (float_of_int (List.length rules)));
            ("us_per_check", Json.Num per_run_us);
            ("checks_per_sec", Json.Num (1e6 /. per_run_us));
            ("mutants", Json.Num (float_of_int (List.length mutants)));
            ("mutant_us_per_check", Json.Num mutant_us);
          ]
        :: !rows)
    [
      ("postgres", Suts.Mini_pg.sut);
      ("mysql", Suts.Mini_mysql.sut);
      ("apache", Suts.Mini_apache.sut);
      ("bind", Suts.Mini_bind.sut);
      ("djbdns", Suts.Mini_djbdns.sut);
      ("appserver", Suts.Mini_appserver.sut);
    ];
  write_artifact "BENCH_lint.json"
    (Json.Obj
       [
         ("bench", Json.Str "lint-throughput");
         ("seed", Json.Num (float_of_int seed));
         ("suts", Json.Arr (List.rev !rows));
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Dataflow throughput: the deepened (corpus-level) rule set            *)
(* ------------------------------------------------------------------ *)

(* conferr analyze and the --deep variants of lint/gaps run the
   deepened rule set — relation checks, reference graph, taint — over
   whole configuration sets; gaps --deep puts it on the O(scenarios)
   replay path.  Same protocol as the lint section (best of 3 loops of
   100 runs) so the marginal cost of the deep rules is a measured
   number, not a guess.  doc/lint.md points here. *)
let print_dataflow_throughput () =
  print_endline "=== Dataflow throughput (deepened rule sets) ===\n";
  let rows = ref [] in
  List.iter
    (fun (name, sut) ->
      let base =
        match Conferr.Engine.parse_default_config sut with
        | Ok base -> base
        | Error msg -> failwith msg
      in
      let rules =
        match Suts.Lint_rules.for_sut name with
        | Some rules -> rules
        | None -> failwith ("no rule set for " ^ name)
      in
      let deep = Suts.Dataflow_rules.deepen name rules in
      let nearest = Conferr.Suggest.nearest in
      let runs = 100 in
      let loop () =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to runs do
          ignore (Conferr_lint.Checker.run ~nearest ~rules:deep base);
          ignore
            (Conferr_lint.Dataflow.env_of_set
               ~specs:(Suts.Dataflow_rules.specs name)
               ~canon:(Suts.Dataflow_rules.canon name)
               base)
        done;
        Unix.gettimeofday () -. t0
      in
      ignore (loop ());
      let best = ref infinity in
      for _ = 1 to 3 do
        best := Float.min !best (loop ())
      done;
      let per_run_us = !best /. float_of_int runs *. 1e6 in
      Printf.printf
        "  %-10s %2d rules (%d deep)  %8.1f us / analyze  %8.0f analyses/s\n"
        name (List.length deep)
        (List.length (Suts.Dataflow_rules.deep_rules name))
        per_run_us (1e6 /. per_run_us);
      rows :=
        Json.Obj
          [
            ("sut", Json.Str name);
            ("rules", Json.Num (float_of_int (List.length deep)));
            ( "deep_rules",
              Json.Num
                (float_of_int (List.length (Suts.Dataflow_rules.deep_rules name)))
            );
            ("us_per_analyze", Json.Num per_run_us);
            ("analyses_per_sec", Json.Num (1e6 /. per_run_us));
          ]
        :: !rows)
    [
      ("postgres", Suts.Mini_pg.sut);
      ("mysql", Suts.Mini_mysql.sut);
      ("apache", Suts.Mini_apache.sut);
      ("bind", Suts.Mini_bind.sut);
      ("djbdns", Suts.Mini_djbdns.sut);
      ("appserver", Suts.Mini_appserver.sut);
    ];
  write_artifact "BENCH_dataflow.json"
    (Json.Obj
       [
         ("bench", Json.Str "dataflow-throughput");
         ("suts", Json.Arr (List.rev !rows));
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel timings                                             *)
(* ------------------------------------------------------------------ *)

let single_scenario_test name (sut : Suts.Sut.t) =
  let base =
    match Conferr.Engine.parse_default_config sut with
    | Ok base -> base
    | Error msg -> failwith msg
  in
  let scenario =
    (* delete the first directive (or record, for zone-style files): a
       representative whole-pipeline run (mutate, serialize, boot,
       functional tests) *)
    let file = fst (List.hd sut.config_files) in
    match
      Errgen.Structural.omit_directives ~file base
      @ Errgen.Structural.omit_directives ~query:"//*[kind()='record']" ~file base
      @ Errgen.Structural.omit_directives ~query:"//*[kind()='element']" ~file base
    with
    | s :: _ -> s
    | [] -> failwith "no scenarios"
  in
  Test.make ~name:(Printf.sprintf "injection/%s" name)
    (Staged.stage (fun () ->
         ignore (Conferr.Engine.run_scenario ~sut ~base scenario)))

let table_tests =
  [
    Test.make ~name:"table1/mysql"
      (Staged.stage (fun () ->
           let rng = Conferr_util.Rng.create seed in
           let sut = Suts.Mini_mysql.sut in
           match Conferr.Engine.parse_default_config sut with
           | Error msg -> failwith msg
           | Ok base ->
             let scenarios =
               Conferr.Campaign.typo_scenarios ~rng
                 ~faultload:Conferr.Campaign.paper_faultload sut base
             in
             ignore (Conferr.Engine.run_from ~sut ~base ~scenarios ())));
    Test.make ~name:"table1/postgres"
      (Staged.stage (fun () ->
           let rng = Conferr_util.Rng.create seed in
           let sut = Suts.Mini_pg.sut in
           match Conferr.Engine.parse_default_config sut with
           | Error msg -> failwith msg
           | Ok base ->
             let scenarios =
               Conferr.Campaign.typo_scenarios ~rng
                 ~faultload:Conferr.Campaign.paper_faultload sut base
             in
             ignore (Conferr.Engine.run_from ~sut ~base ~scenarios ())));
    Test.make ~name:"table1/apache"
      (Staged.stage (fun () ->
           let rng = Conferr_util.Rng.create seed in
           let sut = Suts.Mini_apache.sut in
           let faultload =
             { Conferr.Campaign.paper_faultload with typos_per_directive = 1 }
           in
           match Conferr.Engine.parse_default_config sut with
           | Error msg -> failwith msg
           | Ok base ->
             let scenarios =
               Conferr.Campaign.typo_scenarios ~rng ~faultload sut base
             in
             ignore (Conferr.Engine.run_from ~sut ~base ~scenarios ())));
    Test.make ~name:"table2/structural-variations"
      (Staged.stage (fun () -> ignore (Conferr.Paper.table2 ~seed ())));
    Test.make ~name:"table3/semantic-dns"
      (Staged.stage (fun () -> ignore (Conferr.Paper.table3 ())));
    Test.make ~name:"figure3/db-comparison"
      (Staged.stage (fun () -> ignore (Conferr.Paper.figure3 ~seed ~experiments:3 ())));
    Test.make ~name:"benchmark/process"
      (Staged.stage (fun () ->
           ignore (Conferr.Paper.process_benchmark ~seed ~experiments:3 ())));
    Test.make ~name:"suggest/mysql-recoverability"
      (Staged.stage (fun () ->
           let rng = Conferr_util.Rng.create seed in
           ignore
             (Conferr.Suggest.recoverability ~vocabulary:Suts.Vocabulary.mysql ~rng
                ~samples:3 ())));
  ]

let injection_tests =
  [
    single_scenario_test "mysql" Suts.Mini_mysql.sut;
    single_scenario_test "postgres" Suts.Mini_pg.sut;
    single_scenario_test "apache" Suts.Mini_apache.sut;
    single_scenario_test "bind" Suts.Mini_bind.sut;
    single_scenario_test "djbdns" Suts.Mini_djbdns.sut;
    single_scenario_test "appserver" Suts.Mini_appserver.sut;
  ]

let micro_tests =
  let apache_text = List.assoc "httpd.conf" Suts.Mini_apache.sut.default_config in
  let apache_tree =
    match Formats.Apacheconf.parse apache_text with
    | Ok t -> t
    | Error _ -> failwith "apache config must parse"
  in
  let query = Confpath.compile_exn "//*[kind()='directive']" in
  let rng = Conferr_util.Rng.create 99 in
  [
    Test.make ~name:"micro/parse-httpd.conf"
      (Staged.stage (fun () -> ignore (Formats.Apacheconf.parse apache_text)));
    Test.make ~name:"micro/confpath-select"
      (Staged.stage (fun () -> ignore (Confpath.select query apache_tree)));
    Test.make ~name:"micro/typo-variants"
      (Staged.stage (fun () ->
           ignore (Errgen.Typo.variants Errgen.Typo.Substitution "max_connections")));
    Test.make ~name:"micro/random-typo"
      (Staged.stage (fun () -> ignore (Errgen.Typo.random_any rng "shared_buffers")));
  ]

let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw_results =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"conferr" ~fmt:"%s %s" tests)
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let pretty_duration ns =
  if ns < 1e3 then Printf.sprintf "%8.1f ns" ns
  else if ns < 1e6 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else Printf.sprintf "%8.2f s " (ns /. 1e9)

let print_benchmarks () =
  print_endline "=== Timings (Bechamel, monotonic clock) ===\n";
  let results = benchmark (table_tests @ injection_tests @ micro_tests) in
  let clock = Measure.label Instance.monotonic_clock in
  match Hashtbl.find_opt results clock with
  | None -> print_endline "no results"
  | Some per_test ->
    let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) per_test [] in
    rows
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some [ ns ] -> Printf.printf "%-40s %s / run\n" name (pretty_duration ns)
           | Some _ | None -> Printf.printf "%-40s (no estimate)\n" name)

(* ------------------------------------------------------------------ *)
(* Serve against the CLI: what the daemon adds to a campaign            *)
(* ------------------------------------------------------------------ *)

(* An in-process daemon (Daemon.handle, no sockets: these rows measure
   the service, not the loopback stack) against the CLI's path for the same
   campaigns, generation plus Executor.run_from with a journal.  A lone
   postgres campaign, then a burst of the three db campaigns (postgres,
   mysql, appserver) submitted together; each campaign is timed from
   its submission until it closes, and the CLI runs the three back to
   back, each timed from the start of the round.  Rounds alternate which
   side runs first; the artifact keeps the medians over the rounds (of
   the burst's middle campaign) and their daemon/CLI ratio, plus the
   202's latency, which includes the submission's generation.  The
   daemon runs the campaigns with its metrics on, the CLI path without
   (as `conferr profile` does).  Both run Executor.run_from on the main
   domain: the daemon's campaigns on threads of their own, which take
   turns once per range of the map.  bench/e2e pins its daemon to one
   CPU; run this section the same way (`taskset -c 1 dune exec
   bench/main.exe serve`).  It writes BENCH_serve.json.

   The socket rows time the same daemon through Daemon.listen on a
   loopback port, with Nagle off on the client's socket: on one
   keep-alive connection, warmed by 10 round trips before each timing,
   two and then three pipelined GET /healthz, from the send to the last
   reply (median and max over the rounds); and a closed pg campaign's
   /events on a connection of its own, from the send to the stream's
   end, with the chunks it came in. *)
let print_serve_throughput () =
  print_endline "=== Serve against the CLI (in-process daemon, doc/serve.md) ===\n";
  let module Daemon = Conferr_serve.Daemon in
  let module Http = Conferr_serve.Http in
  let rounds = 21 in
  let work =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "conferr-bench-serve.%d" (Unix.getpid ()))
  in
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun x -> rm_rf (Filename.concat p x)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  let ms_since t0 = (Unix.gettimeofday () -. t0) *. 1e3 in
  let post_campaign sut =
    let body = Printf.sprintf {|{"sut":%S,"seed":%d}|} sut seed in
    { Http.meth = "POST"; target = "/campaigns"; path = "/campaigns"; query = [];
      version = "HTTP/1.1"; headers = []; body }
  in
  (* the campaign's id and the campaign *)
  let submit daemon sut =
    match Daemon.handle daemon (post_campaign sut) with
    | `Response { Http.status = 202; resp_body; _ } ->
      let id =
        Option.get
          (Option.bind (Result.to_option (Json.of_string resp_body)) (fun j ->
               Option.bind (Json.member "id" j) Json.str))
      in
      (id, Option.get (Daemon.find daemon id))
    | _ -> failwith "bench submission refused"
  in
  (* each campaign's ms from its submission to its close, and each
     submission's ms until its 202 *)
  let daemon_round suts =
    let daemon = Daemon.create ~jobs:1 ~state_dir:(Filename.concat work "state") () in
    let submitted =
      List.map
        (fun sut ->
          let t0 = Unix.gettimeofday () in
          let _, c = submit daemon sut in
          (t0, ms_since t0, c))
        suts
    in
    (* polled every 0.2 ms, as bench/e2e's load generator polls a
       campaign's status, rather than blocking in Daemon.wait *)
    let closed = Array.make (List.length submitted) nan in
    while Array.exists Float.is_nan closed do
      List.iteri
        (fun i (t0, _, c) ->
          if Float.is_nan closed.(i) && Daemon.finished c then closed.(i) <- ms_since t0)
        submitted;
      Unix.sleepf 0.0002
    done;
    let latencies = Array.to_list closed in
    Daemon.drain daemon;
    rm_rf work;
    (latencies, List.map (fun (_, ack, _) -> ack) submitted)
  in
  let cli_round suts =
    let t0 = Unix.gettimeofday () in
    let latencies =
      List.map
        (fun name ->
          let sut = Option.get (Suts.Catalog.find name) in
          let base = Result.get_ok (Conferr.Engine.parse_default_config sut) in
          let scenarios =
            Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
              ~faultload:Conferr.Campaign.paper_faultload sut base
          in
          if not (Sys.file_exists work) then Unix.mkdir work 0o755;
          let settings =
            { Conferr_exec.Executor.default_settings with
              campaign_seed = seed; journal_path = Some (Filename.concat work (name ^ ".jsonl")) }
          in
          ignore (Conferr_exec.Executor.run_from ~settings ~sut ~base ~scenarios ());
          ms_since t0)
        suts
    in
    rm_rf work;
    latencies
  in
  let db = [ "mini_pg"; "mini_mysql"; "mini_appserver" ] in
  let shapes = [ ("lone", [ "mini_pg" ]); ("burst", db) ] in
  (* one round of both shapes on both sides, in the given order *)
  let round daemon_first =
    List.map
      (fun (_, suts) ->
        let daemon () = Gc.full_major (); daemon_round suts in
        let cli () = Gc.full_major (); cli_round suts in
        if daemon_first then
          let d = daemon () in
          (d, cli ())
        else
          let c = cli () in
          (daemon (), c))
      shapes
  in
  ignore (round true) (* warm up: page in the SUT code paths *);
  let results = List.init rounds (fun i -> round (i mod 2 = 0)) in
  let scenarios suts =
    List.fold_left
      (fun acc name ->
        let sut = Option.get (Suts.Catalog.find name) in
        let base = Result.get_ok (Conferr.Engine.parse_default_config sut) in
        acc
        + List.length
            (Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
               ~faultload:Conferr.Campaign.paper_faultload sut base))
      0 suts
  in
  (* What a closed campaign keeps and what a refusal costs, as
     test_budget gates them: live words per closed campaign after
     Gc.full_major, over a window of 12 db campaigns that follows one of
     each; and the words a refused submission allocates through
     Daemon.handle (the least of 3), 503 from a draining daemon and 429
     from one with room for no campaign. *)
  let kept_words =
    let daemon = Daemon.create ~jobs:1 ~state_dir:(Filename.concat work "kept") () in
    let run k = Daemon.wait daemon (snd (submit daemon (List.nth db (k mod 3)))) in
    let live () = Gc.full_major (); (Gc.stat ()).Gc.live_words in
    for k = 0 to 2 do run k done;
    let before = live () in
    for k = 0 to 11 do run k done;
    let kept = (live () - before) / 12 in
    Daemon.drain daemon;
    rm_rf work;
    kept
  in
  let refused_words daemon =
    let words () =
      Gc.minor ();
      ignore (Gc.major_slice 0);
      let s = Gc.quick_stat () in
      Gc.minor_words () +. (s.Gc.major_words -. s.Gc.promoted_words)
    in
    let refuse () = ignore (Daemon.handle daemon (post_campaign "mini_pg")) in
    refuse ();
    let least =
      List.fold_left Float.min infinity
        (List.init 3 (fun _ ->
             let before = words () in
             refuse ();
             words () -. before))
    in
    Daemon.drain daemon;
    rm_rf work;
    least
  in
  let draining_words =
    let daemon = Daemon.create ~jobs:1 ~state_dir:(Filename.concat work "draining") () in
    Daemon.drain daemon;
    refused_words daemon
  in
  let full_words =
    refused_words
      (Daemon.create ~jobs:1 ~max_campaigns:0 ~state_dir:(Filename.concat work "full") ())
  in
  Printf.printf
    "  a closed campaign keeps %d live words; a refused submission allocates %.0f (503) and %.0f (429)\n"
    kept_words draining_words full_words;
  let socket_rows =
    let daemon = Daemon.create ~jobs:1 ~state_dir:(Filename.concat work "socket") () in
    let pg_id, pg = submit daemon "mini_pg" in
    Daemon.wait daemon pg;
    (* listen stops on SIGTERM, sent below; the section's own handlers
       come back after it *)
    let saved = List.map (fun s -> (s, Sys.signal s Sys.Signal_default)) [ Sys.sigterm; Sys.sigint ] in
    let port = Atomic.make 0 in
    let listener =
      Thread.create (fun () -> Daemon.listen daemon ~port:0 ~banner:(Atomic.set port) ()) ()
    in
    while Atomic.get port = 0 do Thread.delay 0.001 done;
    let connect () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
      (fd, Http.reader_of_fd fd)
    in
    (* send the requests in one write, read the replies, return the
       chunks of each body *)
    let exchange (fd, r) requests =
      Http.write_all fd (String.concat "" requests);
      List.map
        (fun _ ->
          match Http.parse_response_head r with
          | Error msg -> failwith ("bench serve socket: " ^ msg)
          | Ok (_, headers) ->
            let chunks = ref 0 in
            (match Http.read_body r ~headers ~on_chunk:(fun _ -> incr chunks) with
             | Ok () -> ()
             | Error msg -> failwith ("bench serve socket: " ^ msg));
            !chunks)
        requests
    in
    let get path = Printf.sprintf "GET %s HTTP/1.1\r\nhost: conferr\r\n\r\n" path in
    let timed f =
      let t0 = Unix.gettimeofday () in
      let x = f () in
      (ms_since t0, x)
    in
    let conn = connect () in
    let pipelined n =
      for _ = 1 to 10 do ignore (exchange conn [ get "/healthz" ]) done;
      fst (timed (fun () -> exchange conn (List.init n (fun _ -> get "/healthz"))))
    in
    let healthz = List.init rounds (fun _ -> let two = pipelined 2 in (two, pipelined 3)) in
    Unix.close (fst conn);
    let events =
      List.init rounds (fun _ ->
          let conn = connect () in
          let ms, chunks = timed (fun () -> exchange conn [ get ("/campaigns/" ^ pg_id ^ "/events") ]) in
          Unix.close (fst conn);
          (ms, List.hd chunks))
    in
    let lines = List.length (fst (Daemon.events_after daemon pg 0)) in
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    Thread.join listener;
    List.iter (fun (s, b) -> Sys.set_signal s b) saved;
    rm_rf work;
    let worst = List.fold_left Float.max 0. in
    let spread xs = Json.Obj [ ("median", Json.Num (median xs)); ("max", Json.Num (worst xs)) ] in
    let two = List.map fst healthz and three = List.map snd healthz in
    let events_ms = median (List.map fst events) and chunks = snd (List.hd events) in
    Printf.printf "  socket: 2 pipelined /healthz %.2f ms (max %.2f), 3 pipelined %.2f ms (max %.2f)\n"
      (median two) (worst two) (median three) (worst three);
    Printf.printf "  socket: closed pg /events, %d lines in %d chunk(s), %.2f ms\n" lines chunks
      events_ms;
    Json.Obj
      [
        ("healthz_pipelined_2_ms", spread two);
        ("healthz_pipelined_3_ms", spread three);
        ( "events_closed_pg",
          Json.Obj
            [
              ("lines", Json.Num (float_of_int lines));
              ("chunks", Json.Num (float_of_int chunks));
              ("ms", Json.Num events_ms);
            ] );
      ]
  in
  let rows =
    List.mapi
      (fun k (shape, suts) ->
        let per_round = List.map (fun r -> List.nth r k) results in
        let daemon_ms = median (List.map (fun ((l, _), _) -> median l) per_round) in
        let cli_ms = median (List.map (fun (_, l) -> median l) per_round) in
        let submit_ms = median (List.concat_map (fun ((_, acks), _) -> acks) per_round) in
        Printf.printf "  %-5s %d campaign(s): daemon %7.2f ms  cli %7.2f ms  (%.2fx), 202 in %.2f ms\n"
          shape (List.length suts) daemon_ms cli_ms (daemon_ms /. cli_ms) submit_ms;
        ( shape,
          Json.Obj
            [
              ("campaigns", Json.Arr (List.map (fun s -> Json.Str s) suts));
              ("scenarios", Json.Num (float_of_int (scenarios suts)));
              ("daemon_ms", Json.Num daemon_ms);
              ("cli_ms", Json.Num cli_ms);
              ("ratio", Json.Num (daemon_ms /. cli_ms));
              ("submit_ms", Json.Num submit_ms);
            ] ))
      shapes
  in
  write_artifact "BENCH_serve.json"
    (Json.Obj
       ([
          ("bench", Json.Str "serve-vs-cli");
          ("seed", Json.Num (float_of_int seed));
          ("pool_jobs", Json.Num 1.);
          ("rounds", Json.Num (float_of_int rounds));
          ("statistic", Json.Str "median");
          ("closed_campaign_live_words", Json.Num (float_of_int kept_words));
          ( "refused_submission_words",
            Json.Obj [ ("draining_503", Json.Num draining_words); ("full_429", Json.Num full_words) ] );
          ("socket", socket_rows);
        ]
       @ rows));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Infer throughput: journal mining (lib/infer, doc/infer.md)           *)
(* ------------------------------------------------------------------ *)

(* `conferr infer` replays a whole campaign journal through the evidence
   extractor, the candidate induction and the rule differ, so mining
   sits on an O(journal lines) path like the gap scan; this section runs
   the paper typo faultload once to record a journal, then times the
   full pipeline over it (best of 3) and reports journal lines mined per
   second. *)
let print_infer_throughput () =
  print_endline "=== Infer throughput (mini-postgres campaign journal) ===\n";
  let sut = Suts.Mini_pg.sut in
  let base =
    match Conferr.Engine.parse_default_config sut with
    | Ok base -> base
    | Error msg -> failwith msg
  in
  let scenarios =
    Conferr.Campaign.typo_scenarios
      ~rng:(Conferr_util.Rng.create seed)
      ~faultload:Conferr.Campaign.paper_faultload sut base
  in
  let rules =
    match Suts.Lint_rules.for_sut sut.Suts.Sut.sut_name with
    | Some rules -> rules
    | None -> failwith "no rule set for postgres"
  in
  let path = Filename.temp_file "conferr_bench_infer" ".jsonl" in
  let entries =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let settings =
          {
            Conferr_exec.Executor.default_settings with
            journal_path = Some path;
          }
        in
        ignore
          (Conferr_exec.Executor.run_from ~settings
             ~on_event:(fun _ -> ())
             ~sut ~base ~scenarios ());
        Conferr_exec.Journal.load path)
  in
  let run () =
    Conferr_infer.Pipeline.run ~nearest:Conferr.Suggest.nearest ~sut ~rules
      ~scenarios ~entries ~base ~thresholds:Conferr_infer.Confidence.default ()
  in
  ignore (run ()) (* warm up *);
  let best = ref infinity in
  for _ = 1 to 3 do
    let t0 = Unix.gettimeofday () in
    ignore (run ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  let result = run () in
  let lines = List.length entries in
  let lines_per_sec = float_of_int lines /. !best in
  let recovered, total = Conferr_infer.Infer_report.recovery result in
  Printf.printf "  journal lines : %d (best of 3 pipeline runs)\n" lines;
  Printf.printf "  pipeline      : %8.2f ms   %8.0f lines/s\n" (!best *. 1e3)
    lines_per_sec;
  Printf.printf "  candidates    : %d kept; recovery %d/%d rule ids\n"
    (List.length result.Conferr_infer.Pipeline.candidates)
    recovered total;
  write_artifact "BENCH_infer.json"
    (Json.Obj
       [
         ("bench", Json.Str "infer-throughput");
         ("sut", Json.Str "postgres");
         ("seed", Json.Num (float_of_int seed));
         ("journal_lines", Json.Num (float_of_int lines));
         ("pipeline_s", Json.Num !best);
         ("lines_per_sec", Json.Num lines_per_sec);
         ( "candidates",
           Json.Num
             (float_of_int (List.length result.Conferr_infer.Pipeline.candidates))
         );
         ("recovered", Json.Num (float_of_int recovered));
         ("rule_ids", Json.Num (float_of_int total));
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Repair: journal mode over the paper faultloads (lib/repair)          *)
(* ------------------------------------------------------------------ *)

(* `conferr repair --journal` replays a recorded campaign: it lints and
   boots each broken configuration, generates and serializes candidate
   repairs, and judges each distinct serialized configuration (re-parse,
   lint, boot and functional tests) once.  This section records the
   campaign of each SUT's seed-42 faultload (the regenerated journal
   scenarios: the paper typo faultload, plus RFC 1912 for the DNS SUTs)
   and times a journal-mode [Pipeline.run] at jobs 1 over it, the
   median of [rounds] runs after a warm-up.  Beside the time it records
   the (target, candidate) pairs validated and the distinct
   configurations among them. *)
let print_repair_throughput () =
  print_endline "=== Repair (journal mode, seed-42 faultloads) ===\n";
  let rounds = 9 in
  let rows =
    List.map
      (fun (sut : Suts.Sut.t) ->
        let base =
          match Conferr.Engine.parse_default_config sut with
          | Ok base -> base
          | Error msg -> failwith msg
        in
        let rules =
          match Suts.Lint_rules.for_sut sut.sut_name with
          | Some rules -> rules
          | None -> failwith ("no rule set for " ^ sut.sut_name)
        in
        let scenarios = Conferr.Faultload.journal_scenarios ~seed sut base in
        let path = Filename.temp_file "conferr_bench_repair" ".jsonl" in
        let entries =
          Fun.protect
            ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
            (fun () ->
              let settings =
                { Conferr_exec.Executor.default_settings with journal_path = Some path }
              in
              ignore
                (Conferr_exec.Executor.run_from ~settings
                   ~on_event:(fun _ -> ())
                   ~sut ~base ~scenarios ());
              Conferr_exec.Journal.load path)
        in
        let targets =
          Conferr_repair.Pipeline.journal_targets ~scenarios ~stock:base entries
        in
        let run () =
          Conferr_repair.Pipeline.run ~nearest:Conferr.Suggest.nearest ~sut ~rules
            ~stock:base targets
        in
        let result = run () (* warm up *) in
        let ms =
          median
            (List.init rounds (fun _ ->
                 let t0 = Unix.gettimeofday () in
                 ignore (run ());
                 (Unix.gettimeofday () -. t0) *. 1e3))
        in
        let repaired, clean, unrepaired, skipped =
          Conferr_repair.Pipeline.counts result
        in
        let validated = result.Conferr_repair.Pipeline.validated
        and judged = result.Conferr_repair.Pipeline.judged in
        Printf.printf
          "  %-10s %4d targets  %5d validations  %4d configurations  %8.1f ms / run\n"
          sut.sut_name (List.length targets) validated judged ms;
        Json.Obj
          [
            ("sut", Json.Str sut.sut_name);
            ("targets", Json.Num (float_of_int (List.length targets)));
            ("validations", Json.Num (float_of_int validated));
            ("configurations", Json.Num (float_of_int judged));
            ("ms_per_run", Json.Num ms);
            ("repaired", Json.Num (float_of_int repaired));
            ("already_clean", Json.Num (float_of_int clean));
            ("unrepairable", Json.Num (float_of_int unrepaired));
            ("skipped", Json.Num (float_of_int skipped));
          ])
      [
        Suts.Mini_appserver.sut;
        Suts.Mini_pg.sut;
        Suts.Mini_mysql.sut;
        Suts.Mini_djbdns.sut;
        Suts.Mini_bind.sut;
        Suts.Mini_apache.sut;
      ]
  in
  write_artifact "BENCH_repair.json"
    (Json.Obj
       [
         ("bench", Json.Str "repair-journal");
         ("seed", Json.Num (float_of_int seed));
         ("jobs", Json.Num 1.);
         ("rounds", Json.Num (float_of_int rounds));
         ("statistic", Json.Str "median");
         ("suts", Json.Arr rows);
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Generation throughput: the §5.2 typo faultload and reverse typos    *)
(* ------------------------------------------------------------------ *)

(* Every campaign, daemon submission and journal replay starts by
   generating the paper faultload, and `conferr repair` runs the typo
   model backwards once per unknown name.  This section times
   Campaign.typo_scenarios per SUT and Typo.corrections over the
   postgres vocabulary, with the lint section's protocol (a warm-up
   loop, then the best of 3 loops). *)
let print_generate_throughput () =
  print_endline "=== Generation throughput (typo faultload, reverse typos) ===\n";
  let best_of_3 ~runs f =
    let loop () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to runs do
        f ()
      done;
      Unix.gettimeofday () -. t0
    in
    ignore (loop ());
    let best = ref infinity in
    for _ = 1 to 3 do
      best := Float.min !best (loop ())
    done;
    !best /. float_of_int runs
  in
  let rows =
    List.map
      (fun (name, sut) ->
        let base =
          match Conferr.Engine.parse_default_config sut with
          | Ok base -> base
          | Error msg -> failwith msg
        in
        let generate () =
          Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
            ~faultload:Conferr.Campaign.paper_faultload sut base
        in
        let scenarios = List.length (generate ()) in
        let per_run = best_of_3 ~runs:10 (fun () -> ignore (generate ())) in
        let us = per_run /. float_of_int scenarios *. 1e6 in
        Printf.printf "  %-10s %4d scenarios  %8.2f us / scenario\n" name scenarios us;
        Json.Obj
          [
            ("sut", Json.Str name);
            ("scenarios", Json.Num (float_of_int scenarios));
            ("us_per_scenario", Json.Num us);
          ])
      [
        ("postgres", Suts.Mini_pg.sut);
        ("mysql", Suts.Mini_mysql.sut);
        ("apache", Suts.Mini_apache.sut);
        ("bind", Suts.Mini_bind.sut);
        ("djbdns", Suts.Mini_djbdns.sut);
        ("appserver", Suts.Mini_appserver.sut);
      ]
  in
  (* one seeded typo of every vocabulary word, each to be traced back *)
  let vocabulary = Suts.Vocabulary.postgres in
  let rng = Conferr_util.Rng.create seed in
  let typos =
    List.filter_map
      (fun w -> Option.map fst (Errgen.Typo.random_any rng w))
      vocabulary
  in
  let per_sweep =
    best_of_3 ~runs:3 (fun () ->
        List.iter
          (fun w -> ignore (Errgen.Typo.corrections ~vocabulary w))
          typos)
  in
  let corrections_us = per_sweep /. float_of_int (List.length typos) *. 1e6 in
  Printf.printf "  corrections %d-word vocabulary  %8.1f us / call\n"
    (List.length vocabulary) corrections_us;
  write_artifact "BENCH_generate.json"
    (Json.Obj
       [
         ("bench", Json.Str "generate-throughput");
         ("seed", Json.Num (float_of_int seed));
         ("suts", Json.Arr rows);
         ( "corrections",
           Json.Obj
             [
               ("sut", Json.Str "postgres");
               ("vocabulary", Json.Num (float_of_int (List.length vocabulary)));
               ("calls", Json.Num (float_of_int (List.length typos)));
               ("us_per_call", Json.Num corrections_us);
             ] );
       ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Journal cost on real entries                                         *)
(* ------------------------------------------------------------------ *)

(* What the journal costs a campaign, on the entries of the seed-42
   paper faultload of each db SUT (the campaigns where the journal is
   the largest in-process share): one append to a single-file (v2) and
   a segmented (v3) writer, one line read back by [Journal.load], a
   checkpoint that rewrites every line, and [Executor.run_from] at
   jobs 1 with a v2 journal against without one.  Each measure is the
   median of [rounds]; the two run_from variants alternate which goes
   first, so neither always runs warm. *)
let print_journal_throughput () =
  print_endline "=== Journal cost on real entries (seed-42 paper faultloads) ===\n";
  let module Journal = Conferr_exec.Journal in
  let module Executor = Conferr_exec.Executor in
  let rounds = 15 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let rec rm_rf p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun x -> rm_rf (Filename.concat p x)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  let measure (sut : Suts.Sut.t) =
    let base =
      match Conferr.Engine.parse_default_config sut with
      | Ok base -> base
      | Error msg -> failwith msg
    in
    let scenarios =
      Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
        ~faultload:Conferr.Campaign.paper_faultload sut base
    in
    let path = Filename.temp_file "conferr_bench_journal" ".jsonl" in
    let run journal_path () =
      ignore
        (Executor.run_from
           ~settings:
             { Executor.default_settings with campaign_seed = seed; journal_path }
           ~on_event:ignore ~sut ~base ~scenarios ())
    in
    run (Some path) ();
    let entries = Journal.load path in
    let n = float_of_int (List.length entries) in
    let appends ?segment_bytes target () =
      let w = Journal.open_append ~fresh:true ?segment_bytes target in
      List.iter (Journal.append w) entries;
      Journal.close w
    in
    let store = path ^ ".v3" in
    let samples =
      List.init rounds (fun round ->
          let v2 = time (appends path) in
          let v3 = time (appends ~segment_bytes:(1 lsl 20) store) in
          let load = time (fun () -> ignore (Journal.load path)) in
          let checkpoint = time (fun () -> Journal.checkpoint path entries) in
          let bare, journaled =
            if round mod 2 = 0 then
              let b = time (run None) in
              (b, time (run (Some path)))
            else
              let j = time (run (Some path)) in
              (time (run None), j)
          in
          (v2, v3, load, checkpoint, bare, journaled))
    in
    rm_rf path;
    rm_rf store;
    let pick f = median (List.map f samples) in
    let us_per_entry t = t *. 1e6 /. n in
    let append_v2 = us_per_entry (pick (fun (x, _, _, _, _, _) -> x)) in
    let append_v3 = us_per_entry (pick (fun (_, x, _, _, _, _) -> x)) in
    let load = us_per_entry (pick (fun (_, _, x, _, _, _) -> x)) in
    let checkpoint_ms = 1e3 *. pick (fun (_, _, _, x, _, _) -> x) in
    let bare_ms = 1e3 *. pick (fun (_, _, _, _, x, _) -> x) in
    let journaled_ms = 1e3 *. pick (fun (_, _, _, _, _, x) -> x) in
    Printf.printf
      "  %-10s %4d entries  append v2 %6.2f us  v3 %6.2f us  load %6.2f us  \
       checkpoint %6.3f ms  run_from %6.3f ms bare, %6.3f ms journaled (%.2fx)\n%!"
      sut.sut_name (List.length entries) append_v2 append_v3 load checkpoint_ms
      bare_ms journaled_ms (journaled_ms /. bare_ms);
    Json.Obj
      [
        ("sut", Json.Str sut.sut_name);
        ("entries", Json.Num n);
        ("append_us_v2", Json.Num append_v2);
        ("append_us_v3", Json.Num append_v3);
        ("load_us_per_entry", Json.Num load);
        ("checkpoint_ms", Json.Num checkpoint_ms);
        ("run_from_bare_ms", Json.Num bare_ms);
        ("run_from_journaled_ms", Json.Num journaled_ms);
        ("journaled_over_bare", Json.Num (journaled_ms /. bare_ms));
      ]
  in
  let suts = [ Suts.Mini_pg.sut; Suts.Mini_mysql.sut; Suts.Mini_appserver.sut ] in
  let results = List.map measure suts in
  write_artifact "BENCH_journal.json"
    (Json.Obj
       [
         ("bench", Json.Str "journal-cost");
         ("seed", Json.Num (float_of_int seed));
         ("rounds", Json.Num (float_of_int rounds));
         ("statistic", Json.Str "median");
         ("suts", Json.Arr results);
       ]);
  print_newline ()

(* Each measured section is addressable on its own — `bench/main.exe
   serve` (or executor, tracer, adaptive, lint, infer, generate)
   regenerates just that section and its BENCH_*.json artifact without
   the (slow) full sweep; `bench/main.exe ablation` prints just the
   ablations. *)
let sections =
  [
    ("executor", print_executor_scaling);
    ("tracer", print_tracer_overhead);
    ("adaptive", print_adaptive_discovery);
    ("lint", print_lint_throughput);
    ("dataflow", print_dataflow_throughput);
    ("serve", print_serve_throughput);
    ("infer", print_infer_throughput);
    ("repair", print_repair_throughput);
    ("generate", print_generate_throughput);
    ("journal", print_journal_throughput);
  ]

let () =
  if Array.length Sys.argv > 1 then
    let addressable = ("ablation", print_ablations) :: sections in
    match List.assoc_opt Sys.argv.(1) addressable with
    | Some section -> section ()
    | None ->
      Printf.eprintf "bench: unknown section %S (expected one of: %s)\n"
        Sys.argv.(1)
        (String.concat ", " (List.map fst addressable));
      exit 2
  else begin
    print_tables ();
    print_ablations ();
    List.iter (fun (_, section) -> section ()) sections;
    print_benchmarks ()
  end
