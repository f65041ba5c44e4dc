(* conferr — command-line front end.

   Subcommands mirror the paper's evaluation: typo campaigns (table1),
   structural variations (table2), semantic DNS errors (table3), the
   MySQL/Postgres comparison (figure3), plus generic profile runs against
   any simulated SUT.

   A flag that means the same thing on several subcommands is declared
   once, in one of three shared parts: the campaign term (profile,
   semantic, explore, chaos), the analysis frontend (lint, analyze,
   gaps, infer, repair) and the daemon-client term (submit, status,
   results, watch, cancel, get).  Every error exit goes through [fail]. *)

open Cmdliner
module Json = Conferr_obsv.Json

(* Print "conferr: MSG" and exit [code]; the default, 2, is the shared
   usage-error status (doc/exec.md, "Exit codes"). *)
let fail ?(code = 2) fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "conferr: %s\n" msg;
      exit code)
    fmt

(* Run [f], turning a file the command cannot read or write into an exit. *)
let guard ?code f = try f () with Sys_error msg -> fail ?code "%s" msg

let sut_conv =
  let parse s =
    match Suts.Catalog.find s with
    | Some sut -> Ok sut
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown SUT %S (expected one of: %s)" s
              (String.concat ", " Suts.Catalog.names)))
  in
  let print fmt s = Format.pp_print_string fmt s.Suts.Sut.sut_name in
  Arg.conv (parse, print)

let sut_arg ?(doc = "System under test.") () =
  Arg.(required & opt (some sut_conv) None & info [ "sut" ] ~docv:"SUT" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Log each injection as it runs.")

let setup_logging verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let jobs_arg =
  Arg.(
    value & opt string "1"
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the campaign (1 = sequential), or $(b,auto) \
           to size the pool to the machine.  Must be at least 1; values \
           beyond 64 are clamped with a warning.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Per-scenario deadline; a scenario still running after $(docv) \
              seconds (and its retries) is classified as a harness crash.")

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N" ~doc:"Attempts to re-run a timed-out scenario.")

let metrics_arg doc =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)

let html_arg doc =
  Arg.(value & opt (some string) None & info [ "html" ] ~docv:"PATH" ~doc)

let format_arg ?(docv = "FORMAT") ~doc formats =
  Arg.(value & opt (enum formats) `Text & info [ "format" ] ~docv ~doc)

let text_or_json = [ ("text", `Text); ("json", `Json) ]

(* Validate --jobs: parse the grammar (a positive integer or "auto"),
   then check the number; exit 2 on nonsense (junk text, 0 or
   negative), warn and clamp beyond 64. *)
let checked_jobs jobs_text =
  let parsed =
    match Conferr_exec.Executor.parse_jobs jobs_text with
    | Ok n -> n
    | Error msg -> fail "%s" msg
  in
  match Conferr_exec.Executor.clamp_jobs parsed with
  | Error msg -> fail "%s" msg
  | Ok (jobs, warning) ->
    Option.iter (fun w -> Printf.eprintf "conferr: warning: %s\n" w) warning;
    jobs

let segment_bytes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "segment-bytes" ]
        ~docv:"N"
        ~doc:
          "Write the journal as a v3 segmented store: a directory of segment            files rotated at $(docv) bytes plus a CRC-carrying manifest, each            worker domain appending to its own segment (doc/exec.md). Without            this flag a journal path that already is a store keeps the store            layout.")

let checked_segment_bytes = function
  | Some n when n <= 0 -> fail "--segment-bytes must be positive, got %d" n
  | sb -> sb

(* Inputs named on the command line: one that cannot be read is a usage
   error. *)
let read_file path =
  guard (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic)))

let write_file path text =
  guard (fun () ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text))

(* Journals named as *inputs* (fsck, gaps, report --journal) follow the
   shared exit-code convention (doc/exec.md): a path that does not exist
   or cannot be read is a usage error (exit 2), never an empty-journal
   success. *)
let require_journal_file path =
  if not (Sys.file_exists path) then fail "%s: no such journal" path

let load_journal path =
  require_journal_file path;
  guard (fun () -> Conferr_exec.Journal.load path)

let input_journal_arg
    ?(doc =
      "Read the recorded campaign journal at $(docv): the file or v3 store \
       a campaign command's $(b,--journal) wrote.") () =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"PATH" ~doc)

let stock_config ?code sut =
  match Conferr.Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> fail ?code "%s" msg

let dns_codec sut =
  match sut.Suts.Sut.sut_name with
  | "bind" -> Some (Dnsmodel.Codec.bind ~zones:Suts.Mini_bind.zones)
  | "djbdns" -> Some (Dnsmodel.Codec.tinydns ~file:Suts.Mini_djbdns.data_file)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The campaign term (doc/exec.md, doc/obsv.md): the flags profile,
   semantic, explore and chaos share, validated once by [run_campaign]. *)

type campaign = {
  sut : Suts.Sut.t;
  jobs : string;
  journal : string option;
  resume : bool;
  segment_bytes : int option;
  entries : bool;
  stats : bool;
  trace : string option;
  metrics : string option;
}

let campaign_term ?sut_doc () =
  let make sut jobs journal resume segment_bytes entries stats trace metrics =
    { sut; jobs; journal; resume; segment_bytes; entries; stats; trace; metrics }
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:"Append every finished injection to a JSONL journal at $(docv).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Skip scenarios already recorded in the journal (requires --journal); \
             without this flag an existing journal is restarted from scratch.")
  in
  let entries =
    Arg.(
      value & flag
      & info [ "entries" ] ~doc:"Also print the per-injection entries of the profile.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Also print campaign execution statistics.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record per-scenario phase spans and write them to $(docv) as \
             Chrome trace-event JSON (load it in ui.perfetto.dev or \
             chrome://tracing).")
  in
  let metrics =
    metrics_arg
      "Collect campaign metrics and write a Prometheus text-format \
       snapshot to $(docv) when the run finishes."
  in
  Term.(
    const make $ sut_arg ?doc:sut_doc () $ jobs_arg $ journal $ resume
    $ segment_bytes_arg $ entries $ stats $ trace $ metrics)

(* The one handler for a campaign whose journal storage failed: [before]
   prints what the command still owes stdout.  A journal fault leaves the
   journal repairable and resumable, so the message says how. *)
let journal_failed ?(before = ignore) e =
  before ();
  match e with
  | Conferr_exec.Journal.Fault msg ->
    fail ~code:1
      "journal fault: %s\nconferr: the journal is repairable: run fsck \
       --repair, then resume with --resume"
      msg
  | Sys_error msg -> fail ~code:1 "%s" msg
  | e -> raise e

(* Validate the campaign flags, build the observers --trace/--metrics ask
   for, and run [f] with executor settings carrying both; the trace and
   metrics files are written once [f] returns.  With neither flag the
   campaign runs exactly as without observers (no clock, byte-identical
   journal and profile).  Every check exits 2 before any campaign work:
   --resume needs a journal, and a journal path the writer cannot
   plausibly open (unwritable parent, directory where a file is
   expected, single file where a --segment-bytes store is requested, ...)
   is a usage error. *)
let run_campaign ~seed c f =
  if c.resume && c.journal = None then
    fail "--resume requires --journal PATH (there is no journal to resume from)";
  let segment_bytes = checked_segment_bytes c.segment_bytes in
  Option.iter
    (fun path ->
      match Conferr_exec.Journal.validate_path ?segment_bytes path with
      | Ok () -> ()
      | Error msg -> fail "%s" msg)
    c.journal;
  let jobs = checked_jobs c.jobs in
  let tracer = Option.map (fun _ -> Conferr_obsv.Trace.create ()) c.trace in
  let registry = Option.map (fun _ -> Conferr_obsv.Metrics.create ()) c.metrics in
  let settings =
    {
      Conferr_exec.Executor.default_settings with
      jobs;
      campaign_seed = seed;
      journal_path = c.journal;
      segment_bytes;
      resume = c.resume;
      trace = tracer;
      metrics = registry;
    }
  in
  let result =
    try f settings
    with (Conferr_exec.Journal.Fault _ | Sys_error _) as e -> journal_failed e
  in
  guard ~code:1 (fun () ->
      (match (c.trace, tracer) with
       | Some path, Some t ->
         Conferr_obsv.Trace.write_file t path;
         if Conferr_obsv.Trace.dropped t > 0 then
           Printf.eprintf
             "conferr: warning: trace ring overflow, %d scenario(s) not recorded\n"
             (Conferr_obsv.Trace.dropped t)
       | _ -> ());
      match (c.metrics, registry) with
      | Some path, Some r -> Conferr_obsv.Metrics.write_file r path
      | _ -> ());
  result

let print_stats c snapshot =
  if c.stats then begin
    print_newline ();
    print_string (Conferr_exec.Progress.render snapshot)
  end

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-10s %s (files: %s)\n" s.Suts.Sut.sut_name s.Suts.Sut.version
          (String.concat ", " (List.map fst s.Suts.Sut.config_files)))
      Suts.Catalog.all
  in
  Cmd.v (Cmd.info "list-suts" ~doc:"List the simulated systems under test.")
    Term.(const run $ const ())

let typo_scenarios ~rng sut base =
  Conferr.Campaign.typo_scenarios ~rng ~faultload:Conferr.Campaign.paper_faultload
    sut base

let profile_cmd =
  let run c seed csv by_level verbose timeout retries signatures =
    setup_logging verbose;
    let base = stock_config ~code:1 c.sut in
    let scenarios = typo_scenarios ~rng:(Conferr_util.Rng.create seed) c.sut base in
    let profile, snapshot =
      run_campaign ~seed c (fun s ->
          Conferr_exec.Executor.run_from
            ~settings:{ s with timeout_s = timeout; retries }
            ~sut:c.sut ~base ~scenarios ())
    in
    if csv then print_string (Conferr.Profile.to_csv profile)
    else begin
      print_string (Conferr.Profile.render profile);
      if by_level then begin
        print_newline ();
        print_string (Conferr.Profile.render_by_cognitive_level profile)
      end;
      if signatures then begin
        print_newline ();
        print_string
          (Conferr_exec.Signature.render
             (Conferr_exec.Signature.clusters profile.Conferr.Profile.entries))
      end;
      if c.entries then print_string (Conferr.Profile.render_entries profile);
      print_stats c snapshot
    end
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit the raw profile as CSV.")
  in
  let by_level =
    Arg.(
      value & flag
      & info [ "by-level" ] ~doc:"Also summarize outcomes by GEMS cognitive level.")
  in
  let signatures =
    Arg.(
      value & flag
      & info [ "signatures" ]
          ~doc:"Also print the profile clustered into distinct failure signatures.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the typo faultload against one SUT and print its resilience profile. \
          Campaigns can run on several domains (--jobs), record a resumable \
          journal (--journal, --resume) and bound each injection (--timeout).")
    Term.(
      const run $ campaign_term () $ seed_arg $ csv $ by_level $ verbose_arg
      $ timeout_arg $ retries_arg $ signatures)

let benchmark_cmd =
  let run seed experiments =
    print_string
      (Conferr.Paper.render_process_benchmark
         (Conferr.Paper.process_benchmark ~seed ~experiments ()))
  in
  let experiments =
    Arg.(
      value & opt int 20
      & info [ "experiments" ] ~docv:"N" ~doc:"Typos injected per task.")
  in
  Cmd.v
    (Cmd.info "benchmark"
       ~doc:
         "Run the configuration-process benchmark: valid edits followed by typos \
          injected near them (paper section 5.5).")
    Term.(const run $ seed_arg $ experiments)

let table_cmd name doc render =
  let run seed = print_string (render seed) in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ seed_arg)

let table1_cmd =
  table_cmd "table1" "Regenerate Table 1 (resilience to typos)." (fun seed ->
      Conferr.Paper.render_table1 (Conferr.Paper.table1 ~seed ()))

let table2_cmd =
  table_cmd "table2" "Regenerate Table 2 (resilience to structural errors)."
    (fun seed -> Conferr.Paper.render_table2 (Conferr.Paper.table2 ~seed ()))

let table3_cmd =
  table_cmd "table3" "Regenerate Table 3 (resilience to semantic DNS errors)."
    (fun _seed -> Conferr.Paper.render_table3 (Conferr.Paper.table3 ()))

let figure3_cmd =
  table_cmd "figure3" "Regenerate Figure 3 (MySQL vs Postgres value-typo resilience)."
    (fun seed -> Conferr.Paper.render_figure3 (Conferr.Paper.figure3 ~seed ()))

let all_cmd =
  table_cmd "all" "Regenerate every table and figure of the paper's evaluation."
    (fun seed -> Conferr.Paper.run_all ~seed ())

let variations_cmd =
  let run sut seed =
    let t = Conferr.Structural_check.run ~rng:(Conferr_util.Rng.create seed) ~sut () in
    List.iter
      (fun (r : Conferr.Structural_check.row) ->
        Printf.printf "%-32s %s\n"
          (Errgen.Variations.class_title r.class_name)
          (Conferr.Structural_check.support_label r.support))
      t.rows;
    Printf.printf "%% of assumptions satisfied: %.0f%%\n" t.satisfied_percent
  in
  Cmd.v
    (Cmd.info "variations"
       ~doc:"Check which structural variation classes one SUT accepts.")
    Term.(const run $ sut_arg () $ seed_arg)

let semantic_cmd =
  let run c =
    let codec =
      match dns_codec c.sut with
      | Some codec -> codec
      | None ->
        fail ~code:1 "semantic campaign only supports DNS SUTs, not %s"
          c.sut.Suts.Sut.sut_name
    in
    let base = stock_config ~code:1 c.sut in
    let scenarios =
      Dnsmodel.Rfc1912.scenarios ~codec ~faults:Dnsmodel.Rfc1912.all_faults base
      |> Errgen.Scenario.relabel_ids ~prefix:"semantic"
    in
    let profile, snapshot =
      run_campaign ~seed:42 c
        (fun settings ->
          Conferr_exec.Executor.run_from ~settings ~sut:c.sut ~base ~scenarios ())
    in
    print_string (Conferr.Profile.render profile);
    if c.entries then print_string (Conferr.Profile.render_entries profile);
    print_stats c snapshot
  in
  Cmd.v
    (Cmd.info "semantic"
       ~doc:"Run the full RFC-1912 semantic fault catalog against a DNS SUT.")
    Term.(
      const run $ campaign_term ~sut_doc:"DNS system under test (bind or djbdns)." ())

let explore_cmd =
  let run c seed verbose timeout retries budget batch plateau wallclock
      quarantine =
    setup_logging verbose;
    let stream =
      Errgen.Gen.of_generator ~prefix:"typo" ~seed (fun ~rng ->
          typo_scenarios ~rng c.sut)
    in
    let explore (s : Conferr_exec.Executor.settings) =
      let settings =
        {
          Conferr_adapt.Explore.exec = { s with timeout_s = timeout; retries };
          batch;
          budget;
          plateau;
          wallclock_s = wallclock;
          quarantine_path = quarantine;
        }
      in
      Conferr_adapt.Explore.run ~settings ~sut:c.sut ~stream ()
    in
    match run_campaign ~seed c explore with
    | Error e -> fail ~code:1 "%s" (Conferr.Engine.config_error_to_string e)
    | Ok report ->
      print_string (Conferr_adapt.Explore.render report);
      if c.entries then begin
        print_newline ();
        print_string
          (Conferr.Profile.render_entries report.Conferr_adapt.Explore.profile)
      end;
      if c.stats then begin
        print_newline ();
        print_string (Conferr.Profile.render report.Conferr_adapt.Explore.profile)
      end
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) SUT executions (duplicates and journaled \
             results are free; checked at batch boundaries).")
  in
  let batch =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"N" ~doc:"Scenarios scheduled per batch.")
  in
  let plateau =
    Arg.(
      value & opt int 4
      & info [ "plateau" ] ~docv:"K"
          ~doc:
            "Stop after $(docv) consecutive batches discover no new failure \
             signature (0 disables the rule).")
  in
  let wallclock =
    Arg.(
      value
      & opt (some float) None
      & info [ "wallclock" ] ~docv:"SECONDS"
          ~doc:"Stop at the first batch boundary past $(docv) seconds.")
  in
  let quarantine =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:
            "Quarantine directory of a previous hardened campaign; scenario \
             ids listed in its flaky.txt are deferred to the back of the \
             schedule.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Coverage-guided campaign search: stream typo scenarios, skip \
          byte-identical mutants, and steer batches toward fault classes \
          that keep discovering new failure signatures (doc/adapt.md). \
          Deterministic for a fixed seed, any --jobs.")
    Term.(
      const run $ campaign_term () $ seed_arg $ verbose_arg $ timeout_arg
      $ retries_arg $ budget $ batch $ plateau $ wallclock $ quarantine)

(* " (label n, label n, ...)" after a fault count, or nothing. *)
let per_fault label = function
  | [] -> ""
  | per ->
    Printf.sprintf " (%s)"
      (String.concat ", "
         (List.map (fun (f, n) -> Printf.sprintf "%s %d" (label f) n) per))

let chaos_cmd =
  let module Chaos = Conferr_harden.Chaos in
  let module Diskchaos = Conferr_harden.Diskchaos in
  let run c seed chaos_seed rate verbose timeout retries quorum breaker
      quarantine fuel disk disk_kill_at =
    setup_logging verbose;
    if rate < 0.0 || rate > 1.0 then fail "--chaos-rate must be within [0; 1]";
    if (disk || disk_kill_at <> None) && c.journal = None then
      fail "--disk/--disk-kill-at require --journal";
    let base = stock_config ~code:1 c.sut in
    let scenarios = typo_scenarios ~rng:(Conferr_util.Rng.create seed) c.sut base in
    (* Both chaos injectors count their faults in the campaign's metrics
       registry, and a storage fault must not hide the disk-chaos stats —
       they are the point of the exercise — so the abort is caught here
       and reported after printing them. *)
    let outcome, chaos_stats, disk_stats =
      run_campaign ~seed c (fun s ->
          let chaotic, chaos_stats =
            Chaos.wrap
              ~settings:
                { Chaos.default_settings with seed = chaos_seed; rate; hang_s = 2. *. timeout }
              ?metrics:s.metrics c.sut
          in
          let journal_io, disk_stats =
            if not disk && disk_kill_at = None then (None, None)
            else begin
              let disk_settings =
                {
                  Diskchaos.seed = chaos_seed;
                  rate = (if disk then rate else 0.0);
                  kill_at = disk_kill_at;
                  faults = (if disk then Diskchaos.all_faults else []);
                }
              in
              let io, st =
                Diskchaos.wrap ~settings:disk_settings ?metrics:s.metrics
                  Diskchaos.real
              in
              (Some io, Some st)
            end
          in
          let settings =
            {
              s with
              journal_io;
              timeout_s = Some timeout;
              retries;
              quorum;
              breaker = (if breaker <= 0 then None else Some breaker);
              quarantine_dir = quarantine;
              fuel;
            }
          in
          let outcome =
            try
              Ok
                (Conferr_exec.Executor.run_from ~settings ~sut:chaotic ~base
                   ~scenarios ())
            with (Conferr_exec.Journal.Fault _ | Sys_error _) as e -> Error e
          in
          (outcome, chaos_stats, disk_stats))
    in
    let print_disk_stats () =
      Option.iter
        (fun st ->
          Printf.printf "Disk chaos: %d fault(s) injected%s, %d byte(s) written%s\n"
            (Diskchaos.injected st)
            (per_fault Diskchaos.fault_label (Diskchaos.by_fault st))
            (Diskchaos.written_bytes st)
            (if Diskchaos.killed st then ", killed" else ""))
        disk_stats
    in
    match outcome with
    | Error e -> journal_failed ~before:print_disk_stats e
    | Ok (profile, snapshot) ->
      print_string (Conferr.Profile.render profile);
      if c.entries then print_string (Conferr.Profile.render_entries profile);
      Printf.printf "\nChaos injection: %d fault(s) injected%s\n"
        (Chaos.injected chaos_stats)
        (per_fault Chaos.fault_label (Chaos.by_fault chaos_stats));
      print_disk_stats ();
      print_stats c snapshot
  in
  let chaos_seed =
    Arg.(
      value & opt int Chaos.default_settings.Chaos.seed
      & info [ "chaos-seed" ] ~docv:"SEED" ~doc:"Seed of the chaos injector.")
  in
  let rate =
    Arg.(
      value & opt float 0.1
      & info [ "chaos-rate" ] ~docv:"P"
          ~doc:"Injection probability per boot/test call, within [0; 1].")
  in
  let timeout =
    Arg.(
      value & opt float 1.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-scenario deadline; an injected hang lasts twice as long.")
  in
  let quorum =
    Arg.(
      value & opt int 3
      & info [ "quorum" ] ~docv:"K"
          ~doc:
            "Re-run a crashed scenario until $(docv) total attempts voted; \
             1 disables the quorum.")
  in
  let breaker =
    Arg.(
      value & opt int 5
      & info [ "breaker" ] ~docv:"N"
          ~doc:
            "Trip a (SUT x fault class) circuit breaker after $(docv) \
             consecutive crashes; 0 disables the breaker.")
  in
  let quarantine =
    Arg.(
      value
      & opt (some string) None
      & info [ "quarantine" ] ~docv:"DIR"
          ~doc:"Write crash repro bundles and the flaky-id list under $(docv).")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"STEPS"
          ~doc:"Cooperative step budget per execution (allocation storms \
                burn it).")
  in
  let disk =
    Arg.(
      value & flag
      & info [ "disk" ]
          ~doc:
            "Also inject storage faults under the journal writer (torn and \
             short writes, ENOSPC, dropped fsyncs) at --chaos-rate with \
             --chaos-seed; requires --journal.  A storage fault aborts the \
             campaign with the journal left repairable (fsck --repair) and \
             resumable (doc/harden.md).")
  in
  let disk_kill_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "disk-kill-at" ] ~docv:"BYTES"
          ~doc:
            "Simulate a crash: abort the campaign after exactly $(docv) \
             journal bytes reach storage (a deterministic kill point for \
             crash-consistency testing); requires --journal.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the typo faultload with chaos self-injection: the SUT is \
          wrapped so boot/test calls randomly crash, hang, allocate or flip \
          outcomes, proving the hardened executor (sandbox, quorum, breaker, \
          journal) survives a hostile SUT; --disk extends the hostility to \
          the journal's own storage (doc/harden.md).")
    Term.(
      const run $ campaign_term () $ seed_arg $ chaos_seed $ rate $ verbose_arg
      $ timeout $ retries_arg $ quorum $ breaker $ quarantine $ fuel $ disk
      $ disk_kill_at)

let fsck_cmd =
  let run journal repair format =
    require_journal_file journal;
    let module J = Conferr_exec.Journal in
    let s = J.survey ~repair journal in
    let totals = J.survey_totals s in
    let pre_clean = J.survey_clean s in
    (match format with
     | `Json -> print_endline (Json.to_string (J.survey_to_json s))
     | `Text ->
       if
         (not s.J.store)
         && totals.J.valid = 0 && totals.J.torn = 0 && totals.J.corrupt = 0
       then
         (* A 0-byte journal is what a campaign that never reached its first
            append leaves behind; it is clean, not damaged. *)
         Printf.printf "%s: empty journal\n" journal
       else if not s.J.store then begin
         Printf.printf
           "%s: %d valid line(s), %d torn, %d corrupt (valid prefix: %d bytes)\n"
           journal totals.J.valid totals.J.torn totals.J.corrupt
           totals.J.valid_prefix_bytes;
         if (not pre_clean) && repair then
           Printf.printf "repaired: truncated to the %d-byte valid prefix\n"
             totals.J.valid_prefix_bytes
       end
       else begin
         Printf.printf "%s: v3 store, %d segment(s), %d valid line(s), %d torn, %d corrupt\n"
           journal (List.length s.J.segments) totals.J.valid totals.J.torn
           totals.J.corrupt;
         if not s.J.manifest_ok then
           print_endline "manifest: missing or unreadable";
         List.iter
           (fun (seg : J.segment_fsck) ->
             Printf.printf "  %s [%s]: %d valid, %d torn, %d corrupt%s%s\n"
               seg.J.segment (J.standing_label seg.J.standing)
               seg.J.counts.J.valid seg.J.counts.J.torn seg.J.counts.J.corrupt
               (if seg.J.crc_ok then "" else ", crc mismatch")
               (if seg.J.dropped > 0 then
                  Printf.sprintf ", repaired: dropped %d line(s)" seg.J.dropped
                else ""))
           s.J.segments;
         if (not pre_clean) && s.J.repaired then
           print_endline "repaired: segments healed and manifest resealed"
       end);
    if pre_clean || repair then exit 0
    else begin
      if format = `Text then
        print_endline "journal is damaged; re-run with --repair to heal it";
      exit 1
    end
  in
  let journal =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"JOURNAL"
          ~doc:"Path of the journal to check: a JSONL file or a v3 store.")
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Heal the journal when torn or corrupt lines are found: a single \
             file is truncated to its valid prefix (atomically); a v3 store \
             has each damaged segment truncated individually, orphan segments \
             dropped, and the manifest resealed.")
  in
  let format =
    format_arg ~docv:"FMT"
      ~doc:
        "Report format: $(b,text) (default) or $(b,json) (one object \
         with totals and a per-segment array)."
      text_or_json
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify a campaign journal line by line (JSON shape and per-line \
          CRC-32) and, for a v3 store, segment by segment against the \
          manifest CRCs; --repair heals what is damaged, --format json \
          reports per-segment counts machine-readably.")
    Term.(const run $ journal $ repair $ format)

let suggest_cmd =
  let run sut seed =
    let vocabulary = Suts.Vocabulary.for_sut sut in
    if vocabulary = [] then
      fail ~code:1 "%s has no name-oriented directives to suggest about"
        sut.Suts.Sut.sut_name;
    let rng = Conferr_util.Rng.create seed in
    print_string
      (Conferr.Suggest.render (Conferr.Suggest.recoverability ~vocabulary ~rng ()))
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:
         "Estimate how many directive-name typos a did-you-mean suggester would \
          repair for one SUT.")
    Term.(const run $ sut_arg () $ seed_arg)

(* Write the HTML dashboard [write] renders to the --html path, if any.
   [write] runs only then, so it is where callers build the page. *)
let write_dashboard ?code html write =
  Option.iter (fun path -> guard ?code (fun () -> write path)) html

let report_cmd =
  let check_trace_file path =
    match Json.of_string (String.trim (read_file path)) with
    | Error msg -> fail ~code:1 "%s: %s" path msg
    | Ok json ->
      (match Json.member "traceEvents" json with
       | Some (Json.Arr events) ->
         Printf.printf "trace OK: %d event(s)\n" (List.length events)
       | _ -> fail ~code:1 "%s: no traceEvents array" path)
  in
  let run sut seed journal html metrics check_trace =
    match (check_trace, journal, sut) with
    | Some path, _, _ -> check_trace_file path
    | None, Some jpath, _ ->
      let rows = Conferr_exec.Dashboard.rows_of_entries (load_journal jpath) in
      let metrics_text = Option.map read_file metrics in
      let title = "conferr campaign \xe2\x80\x94 " ^ Filename.basename jpath in
      write_dashboard ~code:1 (Some html)
        (Conferr_obsv.Report.write_file ~title ~rows ?metrics_text);
      Printf.printf "wrote %s (%d row(s))\n" html (List.length rows)
    | None, None, Some sut ->
      let excluded_variations =
        if sut.Suts.Sut.sut_name = "apache" then
          [ Errgen.Variations.Reorder_sections ]
        else []
      in
      let report =
        Conferr.Report.generate ~seed ~excluded_variations
          ?semantic_codec:(dns_codec sut) sut
      in
      print_string (Conferr.Report.render report)
    | None, None, None ->
      fail
        "report needs --sut (full text report), --journal (HTML dashboard) or \
         --check-trace"
  in
  let sut =
    Arg.(
      value
      & opt (some sut_conv) None
      & info [ "sut" ] ~docv:"SUT"
          ~doc:"System under test for the full text report.")
  in
  let journal =
    input_journal_arg
      ~doc:
        "Render the HTML resilience dashboard from this campaign journal \
         instead of running campaigns (doc/obsv.md)."
      ()
  in
  let html =
    Arg.(
      value & opt string "report.html"
      & info [ "html" ] ~docv:"PATH"
          ~doc:"Output path of the HTML dashboard (with --journal).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Prometheus snapshot written by a campaign's --metrics flag; \
             feeds the dashboard's hardening panels (with --journal).")
  in
  let check_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-trace" ] ~docv:"PATH"
          ~doc:
            "Validate a Chrome trace-event file written by --trace and print \
             its event count.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Generate the full assessment report for one SUT (all campaigns), \
          or render the HTML dashboard for a recorded campaign journal.")
    Term.(const run $ sut $ seed_arg $ journal $ html $ metrics $ check_trace)

(* ------------------------------------------------------------------ *)
(* The analysis frontend (doc/lint.md, doc/infer.md, doc/repair.md):
   what lint, analyze, gaps, infer and repair share.  They follow the
   repo-wide exit-code convention: 0 clean, 1 findings, 2 usage error. *)

let files_arg doc = Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)

let rules_arg doc =
  Arg.(value & opt (some string) None & info [ "rules" ] ~docv:"PATH" ~doc)

let deep_arg doc = Arg.(value & flag & info [ "deep" ] ~doc)

let fail_on_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("warn", Conferr_lint.Finding.Warning);
             ("error", Conferr_lint.Finding.Error);
           ])
        Conferr_lint.Finding.Error
    & info [ "fail-on" ] ~docv:"SEVERITY"
        ~doc:"Exit 1 when a finding at or above $(docv) (warn or error) exists.")

(* The --format of gaps, infer and repair; lint and analyze additionally
   speak SARIF 2.1.0 (doc/lint.md). *)
let report_format_arg =
  format_arg ~doc:"Output format, $(b,text) or $(b,json)." text_or_json

let findings_format_arg =
  format_arg ~doc:"Output format: $(b,text), $(b,json) or $(b,sarif) (2.1.0)."
    (("sarif", `Sarif) :: text_or_json)

(* Print [report] in the chosen --format. *)
let print_report format ~text ~json report =
  match format with
  | `Text -> print_string (text report)
  | `Json -> print_endline (Json.to_string (json report))

let print_findings format ~text ~json findings =
  match format with
  | `Sarif -> print_string (Conferr_lint.Sarif.render findings)
  | (`Text | `Json) as format -> print_report format ~text ~json findings

(* The rule set to check against: the SUT's built-in one, or the rule
   file given with --rules (whose specs repair also mines for clusters);
   with [deep], the SUT's corpus-level (dataflow) rules are added. *)
let load_rules ?(deep = false) sut rules_file =
  let rules, specs =
    match rules_file with
    | Some path -> (
      match Conferr_lint.Rule_file.load (read_file path) with
      | Ok specs -> (List.map Conferr_lint.Rule_file.to_rule specs, specs)
      | Error msg -> fail "%s: %s" path msg)
    | None -> (
      match Suts.Lint_rules.for_sut sut.Suts.Sut.sut_name with
      | Some rules -> (rules, [])
      | None -> fail "no rule set for SUT %s" sut.Suts.Sut.sut_name)
  in
  ((if deep then Suts.Dataflow_rules.deepen sut.Suts.Sut.sut_name rules else rules), specs)

(* Parse one configuration set for checking: the SUT's default files,
   with the FILE arguments (matched to config files by base name)
   substituted in.  A file that does not parse is not fatal — it becomes
   a SYNTAX finding at the file root, like any other diagnostic. *)
let parse_files sut files =
  let config_files = sut.Suts.Sut.config_files in
  let overrides =
    List.map
      (fun path ->
        let name = Filename.basename path in
        if not (List.mem_assoc name config_files) then
          fail "%s: %s is not a configuration file of %s (expected: %s)" path
            name sut.Suts.Sut.sut_name
            (String.concat ", " (List.map fst config_files));
        (name, read_file path))
      files
  in
  List.fold_left
    (fun (set, syntax) (name, fmt) ->
      let text =
        match List.assoc_opt name overrides with
        | Some t -> t
        | None ->
          Option.value ~default:""
            (List.assoc_opt name sut.Suts.Sut.default_config)
      in
      match fmt.Formats.Registry.parse text with
      | Ok tree -> (Conftree.Config_set.add set name tree, syntax)
      | Error e ->
        ( set,
          {
            Conferr_lint.Finding.rule_id = "SYNTAX";
            severity = Conferr_lint.Finding.Error;
            file = name;
            path = [];
            address = "/";
            message = Formats.Parse_error.to_string e;
            suggestion = None;
            related = [];
          }
          :: syntax ))
    (Conftree.Config_set.empty, [])
    config_files

let sort_findings sut findings =
  List.sort_uniq
    (Conferr_lint.Finding.compare
       ~file_order:(List.map fst sut.Suts.Sut.config_files))
    findings

(* The journals gaps, infer and repair replay: their entries, the SUT's
   stock configuration, and the scenarios the campaign ran, regenerated
   from its --seed (Conferr.Faultload.journal_scenarios). *)
let load_replay ~seed sut journals =
  let entries = List.concat_map load_journal journals in
  let stock = stock_config sut in
  (entries, stock, Conferr.Faultload.journal_scenarios ~seed sut stock)

(* Write the Prometheus snapshot of the counters [record] fills to the
   --metrics path, if any. *)
let write_metrics metrics record =
  Option.iter
    (fun path ->
      let registry = Conferr_obsv.Metrics.create () in
      record registry;
      guard (fun () -> Conferr_obsv.Metrics.write_file registry path))
    metrics

let lint_cmd =
  let run sut files format fail_on rules_file deep =
    let rules, _ = load_rules ~deep sut rules_file in
    let set, syntax = parse_files sut files in
    let findings =
      sort_findings sut
        (syntax @ Conferr_lint.Checker.run ~nearest:Conferr.Suggest.nearest ~rules set)
    in
    print_findings format ~text:Conferr_lint.Checker.render_text
      ~json:Conferr_lint.Checker.to_json findings;
    if Conferr_lint.Checker.exceeds ~threshold:fail_on findings then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check configuration files against the SUT's declarative \
          rule set (doc/lint.md), or against a mined rule file (--rules).  \
          Exit 0 when clean, 1 on findings at or above --fail-on, 2 on usage \
          errors.")
    Term.(
      const run
      $ sut_arg ~doc:"System under test whose rule set to apply." ()
      $ files_arg
          "Configuration files to lint, matched to the SUT's configuration \
           files by base name; files not given keep the SUT's default text.  \
           With no $(docv) the SUT's stock configuration is linted."
      $ findings_format_arg $ fail_on_arg
      $ rules_arg
          "Check against the rule file at $(docv) (the format \
           $(b,conferr infer --emit-rules) writes, doc/infer.md) instead \
           of the SUT's built-in rule set."
      $ deep_arg
          "Also apply the SUT's corpus-level (dataflow) rules: relation checks, \
           cross-file shadowing, reference-graph and silent-default taint \
           (doc/lint.md).")

(* conferr analyze: the corpus-level pass on its own — the deepened rule
   set over the whole configuration set, plus the abstract-environment
   and reference-graph summaries.  Byte-identical for any --jobs: the
   pool shards per rule and the merged findings are re-sorted with the
   same comparator the sequential path uses. *)
let analyze_cmd =
  let run sut files format fail_on jobs rules_file html metrics =
    let sut_name = sut.Suts.Sut.sut_name in
    let rules, _ = load_rules ~deep:true sut rules_file in
    let set, syntax = parse_files sut files in
    let jobs = checked_jobs jobs in
    let findings =
      if jobs <= 1 then
        Conferr_lint.Checker.run ~nearest:Conferr.Suggest.nearest ~rules set
      else
        Conferr_pool.map ~jobs
          (fun _ rule ->
            Conferr_lint.Checker.run ~nearest:Conferr.Suggest.nearest
              ~rules:[ rule ] set)
          (Array.of_list rules)
        |> Array.to_list |> List.concat
    in
    let findings = sort_findings sut (syntax @ findings) in
    let env =
      Conferr_lint.Dataflow.env_of_set
        ~specs:(Suts.Dataflow_rules.specs sut_name)
        ~canon:(Suts.Dataflow_rules.canon sut_name)
        set
    in
    let graph =
      Conferr_lint.Refgraph.build set (Suts.Dataflow_rules.edges sut_name set)
    in
    print_findings format
      ~text:(fun findings ->
        Printf.sprintf "%s%s\n%s\n"
          (Conferr_lint.Checker.render_text findings)
          (Conferr_lint.Dataflow.summarize env)
          (Conferr_lint.Refgraph.summarize graph))
      ~json:(fun findings ->
        Json.Obj
          [
            ("sut", Json.Str sut_name);
            ("report", Conferr_lint.Checker.to_json findings);
            ("dataflow", Json.Str (Conferr_lint.Dataflow.summarize env));
            ("graph", Json.Str (Conferr_lint.Refgraph.summarize graph));
          ])
      findings;
    write_metrics metrics (fun registry ->
        let module M = Conferr_obsv.Metrics in
        M.declare ~help:"Corpus-level (dataflow) findings by rule" registry
          M.Counter "conferr_dataflow_findings_total";
        let ids = Suts.Dataflow_rules.dataflow_ids sut_name in
        List.iter
          (fun (f : Conferr_lint.Finding.t) ->
            if List.mem f.rule_id ids then
              M.inc
                ~labels:[ ("rule", f.rule_id); ("sut", sut_name) ]
                registry "conferr_dataflow_findings_total")
          findings);
    write_dashboard html (fun path ->
        Conferr_obsv.Report.write_file
          ~title:("conferr analyze \xe2\x80\x94 " ^ sut_name)
          ~rows:[]
          ~panels:[ Conferr_lint.Checker.analysis_panel findings ]
          path);
    if Conferr_lint.Checker.exceeds ~threshold:fail_on findings then exit 1
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Corpus-level static analysis of a whole configuration set \
          (doc/lint.md): abstract values per directive, linear relation \
          checks across parameters and files, cross-file reference graph \
          (dangling targets, cycles, shadowing) and silent-default taint.  \
          Exit 0 when clean, 1 on findings at or above --fail-on, 2 on usage \
          errors.")
    Term.(
      const run
      $ sut_arg ~doc:"System under test whose deep rule profile to apply." ()
      $ files_arg
          "Configuration files to analyze, matched to the SUT's \
           configuration files by base name (like $(b,conferr lint)); with \
           no $(docv) the SUT's stock configuration set is analyzed."
      $ findings_format_arg $ fail_on_arg $ jobs_arg
      $ rules_arg
          "Analyze against the rule file at $(docv) (which may carry \
           $(b,relation) entries, doc/lint.md) instead of the SUT's \
           built-in base rules; the SUT's deep profile is added either way."
      $ html_arg
          "Also write the HTML dashboard with the corpus-analysis panel to \
           $(docv)."
      $ metrics_arg
          "Write a Prometheus snapshot of conferr_dataflow_findings_total \
           to $(docv).")

let gaps_cmd =
  let run sut journal seed format jobs html metrics deep =
    let rules, _ = load_rules sut None in
    let jpath =
      match journal with
      | Some p -> p
      | None -> fail "gaps requires --journal PATH (a recorded campaign)"
    in
    let entries, base, scenarios = load_replay ~seed sut [ jpath ] in
    let report =
      Conferr_lint_replay.scan ~jobs:(checked_jobs jobs)
        ~nearest:Conferr.Suggest.nearest ~deep ~sut ~rules ~scenarios ~entries
        ~base ()
    in
    print_report format ~text:Conferr_lint_replay.render
      ~json:Conferr_lint_replay.to_json report;
    write_metrics metrics (fun registry ->
        Conferr_lint_replay.record_metrics ~deep registry report);
    write_dashboard html (fun path ->
        Conferr_obsv.Report.write_file
          ~title:("conferr validator gaps \xe2\x80\x94 " ^ Filename.basename jpath)
          ~rows:(Conferr_exec.Dashboard.rows_of_entries entries)
          ~panels:(Conferr_lint_replay.panels ~deep report)
          path);
    if Conferr_lint_replay.gap_total report > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "gaps"
       ~doc:
         "Replay a recorded campaign journal through the static checker and \
          diff the static verdict against each dynamic outcome: silent \
          acceptances, late failures and over-strict rejections (doc/lint.md).  \
          Scenarios are regenerated from --seed, which must match the \
          campaign's.  Exit 0 when the two sides agree everywhere, 1 when \
          gaps were found, 2 on usage errors.")
    Term.(
      const run
      $ sut_arg ~doc:"System under test the journal was recorded for." ()
      $ input_journal_arg () $ seed_arg $ report_format_arg $ jobs_arg
      $ html_arg
          "Also write the HTML dashboard with the validator-gaps panel to \
           $(docv)."
      $ metrics_arg
          "Write a Prometheus snapshot of the gap counters \
           (conferr_gap_total, conferr_lint_findings_total, and with \
           --deep conferr_dataflow_findings_total) to $(docv)."
      $ deep_arg
          "Replay with the SUT's corpus-level (dataflow) rules added: relation \
           violations carry both ConfPaths, and silent acceptances predicted by \
           a gap-claiming deep rule are reclassified as agreements \
           (doc/lint.md).")

let infer_cmd =
  let run sut journals seed format jobs min_support min_confidence emit_rules
      html metrics =
    let rules, _ = load_rules sut None in
    if journals = [] then
      fail "infer requires at least one --journal PATH (a recorded campaign)";
    if min_support < 1 then fail "--min-support must be at least 1";
    if min_confidence < 0. || min_confidence > 1. then
      fail "--min-confidence must be within [0; 1]";
    let entries, base, scenarios = load_replay ~seed sut journals in
    let result =
      Conferr_infer.Pipeline.run ~jobs:(checked_jobs jobs)
        ~nearest:Conferr.Suggest.nearest ~sut ~rules ~scenarios ~entries ~base
        ~thresholds:{ Conferr_infer.Confidence.min_support; min_confidence }
        ()
    in
    print_report format ~text:Conferr_infer.Infer_report.render
      ~json:Conferr_infer.Infer_report.to_json result;
    Option.iter
      (fun path ->
        let specs = Conferr_infer.Infer_report.rule_specs result in
        write_file path (Conferr_lint.Rule_file.save ~sut:sut.Suts.Sut.sut_name specs);
        Printf.eprintf "conferr: wrote %d rule(s) to %s\n" (List.length specs) path)
      emit_rules;
    write_metrics metrics (fun registry ->
        Conferr_infer.Infer_report.record_metrics registry result);
    write_dashboard html (fun path ->
        Conferr_obsv.Report.write_file
          ~title:
            ("conferr inferred constraints \xe2\x80\x94 "
            ^ String.concat ", " (List.map Filename.basename journals))
          ~rows:(Conferr_exec.Dashboard.rows_of_entries entries)
          ~panels:[ Conferr_infer.Infer_report.panel ~hand:rules result ]
          path);
    let diff = result.Conferr_infer.Pipeline.diff in
    if
      diff.Conferr_infer.Differ.contradicted <> []
      || diff.Conferr_infer.Differ.missed_by_hand <> []
      || diff.Conferr_infer.Differ.missed_by_inference <> []
    then exit 1
  in
  let journals =
    Arg.(
      value & opt_all string []
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Recorded campaign journal to mine; repeatable to pool evidence \
             from several campaigns of the same SUT.")
  in
  let min_support =
    Arg.(
      value & opt int 1
      & info [ "min-support" ] ~docv:"N"
          ~doc:"Drop candidates supported by fewer than $(docv) observations.")
  in
  let min_confidence =
    Arg.(
      value & opt float 0.5
      & info [ "min-confidence" ] ~docv:"C"
          ~doc:
            "Drop candidates whose support / (support + contradictions) ratio \
             is below $(docv) (within [0; 1]).")
  in
  let emit_rules =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-rules" ] ~docv:"PATH"
          ~doc:
            "Write the expressible candidates as a loadable rule file to \
             $(docv); check it with $(b,conferr lint --rules) $(docv).")
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Mine recorded campaign journals for configuration constraints and \
          diff the inferred candidates against the SUT's hand-written rule \
          set (doc/infer.md).  Scenarios are regenerated from --seed, which \
          must match the campaigns'.  Exit 0 when every hand-written rule is \
          recovered and nothing was missed by either side, 1 when the sets \
          differ, 2 on usage errors.")
    Term.(
      const run
      $ sut_arg ~doc:"System under test the journal(s) were recorded for." ()
      $ journals $ seed_arg $ report_format_arg $ jobs_arg $ min_support
      $ min_confidence $ emit_rules
      $ html_arg
          "Also write the HTML dashboard with the inferred-constraints \
           panel to $(docv)."
      $ metrics_arg
          "Write a Prometheus snapshot of the inference counters \
           (conferr_infer_candidates_total, conferr_infer_rule_diff_total) \
           to $(docv).")

let repair_cmd =
  let run sut files journal ids seed format jobs rules_file apply html metrics
      deep =
    (* Opt-in: deepened rules make violated relations visible to the
       generator, which turns them into multi-edit candidates. *)
    let rules, specs = load_rules ~deep sut rules_file in
    (match (files, journal) with
    | [], None ->
      fail
        "repair needs FILE arguments (broken configuration files) or \
         --journal PATH (a recorded campaign)"
    | _ :: _, Some _ -> fail "give FILE arguments or --journal, not both"
    | _ -> ());
    if apply && journal <> None then
      fail
        "--apply rewrites the given FILE arguments and has no meaning in \
         --journal mode";
    let stock, targets =
      match journal with
      | None ->
        (* Files that fail to parse are simply absent from the set: the
           whole-file restoration candidate covers them. *)
        let set, _syntax = parse_files sut files in
        let id = String.concat "+" (List.map Filename.basename files) in
        (stock_config sut, [ Conferr_repair.Pipeline.file_target ~id set ])
      | Some jpath ->
        let entries, stock, scenarios = load_replay ~seed sut [ jpath ] in
        List.iter
          (fun id ->
            if
              not
                (List.exists
                   (fun (e : Conferr_exec.Journal.entry) -> e.scenario_id = id)
                   entries)
            then fail "no journal entry with id '%s'" id)
          ids;
        (stock, Conferr_repair.Pipeline.journal_targets ~ids ~scenarios ~stock entries)
    in
    let result =
      Conferr_repair.Pipeline.run ~jobs:(checked_jobs jobs)
        ~nearest:Conferr.Suggest.nearest ~specs ~sut ~rules ~stock targets
    in
    print_report format ~text:Conferr_repair.Repair_report.render
      ~json:Conferr_repair.Repair_report.to_json result;
    let paths_by_name = List.rev_map (fun p -> (Filename.basename p, p)) files in
    if apply then
      List.iter
        (fun (r : Conferr_repair.Pipeline.repair) ->
          match r.r_chosen with
          | Some v ->
            List.iter
              (fun (name, text) ->
                match List.assoc_opt name paths_by_name with
                | None -> ()
                | Some path ->
                  write_file path text;
                  Printf.eprintf "conferr: wrote repaired %s\n" path)
              v.Conferr_repair.Validate.files
          | None -> ())
        result.Conferr_repair.Pipeline.repairs;
    write_metrics metrics (fun registry ->
        Conferr_repair.Repair_report.record_metrics registry result);
    write_dashboard html (fun path ->
        Conferr_obsv.Report.write_file
          ~title:("conferr repairs \xe2\x80\x94 " ^ sut.Suts.Sut.sut_name)
          ~rows:[]
          ~panels:[ Conferr_repair.Repair_report.panel result ]
          path);
    if not (Conferr_repair.Pipeline.all_repaired result) then exit 1
  in
  let ids =
    Arg.(
      value & opt_all string []
      & info [ "id" ] ~docv:"ID"
          ~doc:
            "Repair only the journal entry with this scenario id; repeatable.  \
             Default: every entry in the journal.")
  in
  let apply =
    Arg.(
      value & flag
      & info [ "apply" ]
          ~doc:
            "Write each repaired configuration back over the FILE argument it \
             came from (FILE mode only).")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Synthesize the minimal edit sequence that makes a broken \
          configuration lint-clean and accepted by the SUT's sandboxed \
          validation (doc/repair.md).  Takes broken files directly, or \
          reproduces them from a recorded campaign journal (--journal, \
          scenarios regenerated from --seed which must match the \
          campaign's).  Exit 0 when every target was repaired or already \
          clean, 1 when some target is unrepairable, 2 on usage errors.")
    Term.(
      const run
      $ sut_arg ~doc:"System under test whose configuration is being repaired." ()
      $ files_arg
          "Broken configuration files to repair, matched to the SUT's \
           configuration files by base name (like $(b,conferr lint)); \
           files not given keep the SUT's default text."
      $ input_journal_arg () $ ids $ seed_arg $ report_format_arg $ jobs_arg
      $ rules_arg
          "Validate repairs against the rule file at $(docv) (the format \
           $(b,conferr infer --emit-rules) writes) instead of the SUT's \
           built-in rule set; its implies-present rules also seed \
           multi-edit cluster candidates."
      $ apply
      $ html_arg "Also write the HTML dashboard with the repairs panel to $(docv)."
      $ metrics_arg
          "Write a Prometheus snapshot of the repair counters \
           (conferr_repair_targets_total, conferr_repair_edits_total, \
           conferr_repair_candidates_total) to $(docv)."
      $ deep_arg
          "Also apply the SUT's corpus-level (dataflow) rules; a violated \
           relation seeds a multi-edit candidate restoring every parameter the \
           relation mentions (doc/repair.md).")

(* ------------------------------------------------------------------ *)
(* Service mode (doc/serve.md).  serve runs the daemon; the client
   subcommands talk to a running daemon over its JSON API. *)

let serve_cmd =
  let run jobs port port_file state_dir max_campaigns segment_bytes
      inject_disk_fault =
    let jobs = checked_jobs jobs in
    if port < 0 || port > 65535 then
      fail "--port must be within [0; 65535] (0 = ephemeral)";
    if max_campaigns < 1 then fail "--max-campaigns must be at least 1";
    let segment_bytes = checked_segment_bytes segment_bytes in
    if Sys.file_exists state_dir && not (Sys.is_directory state_dir) then
      fail "--state-dir %s exists and is not a directory" state_dir;
    (* Test hook for test/durability.t: the first campaign submitted
       gets a journal whose storage always reports ENOSPC, so the test
       can assert it fails while the next campaign completes untouched. *)
    let journal_io =
      if not inject_disk_fault then fun _ -> None
      else fun cid ->
        if cid <> "c0001" then None
        else
          let settings =
            {
              Conferr_harden.Diskchaos.default_settings with
              rate = 1.0;
              faults = [ Conferr_harden.Diskchaos.Enospc ];
            }
          in
          Some
            (fst
               (Conferr_harden.Diskchaos.wrap ~settings
                  Conferr_harden.Diskchaos.real))
    in
    let daemon =
      try
        Conferr_serve.Daemon.create ~jobs ~max_campaigns ?segment_bytes
          ~journal_io ~state_dir ()
      with
      | Unix.Unix_error (err, _, _) ->
        fail "cannot create state dir %s: %s" state_dir (Unix.error_message err)
      | Sys_error msg -> fail "cannot create state dir: %s" msg
    in
    (try
       Conferr_serve.Daemon.listen daemon ~port ?port_file
         ~banner:(fun bound ->
           Printf.printf
             "conferr serve: listening on 127.0.0.1:%d (at most %d domain(s), \
              max %d concurrent campaign(s), state in %s)\n%!"
             bound jobs max_campaigns state_dir)
         ()
     with Unix.Unix_error (err, _, _) ->
       fail ~code:1 "cannot listen on port %d: %s" port (Unix.error_message err));
    print_endline "conferr serve: drained, journals checkpointed"
  in
  let port =
    Arg.(
      value & opt int 8080
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (127.0.0.1 only); 0 picks an ephemeral \
                port.")
  in
  let port_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"PATH"
          ~doc:"Write the bound port number to $(docv) once listening (for \
                scripts using --port 0).")
  in
  let state_dir =
    Arg.(
      value & opt string "conferr-serve"
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:"Directory for per-campaign journals (created if missing).")
  in
  let max_campaigns =
    Arg.(
      value & opt int 4
      & info [ "max-campaigns" ] ~docv:"N"
          ~doc:"Most campaigns queued or running at once; submissions beyond \
                it are answered 429 with Retry-After.")
  in
  let inject_disk_fault =
    Arg.(
      value & flag
      & info [ "inject-disk-fault" ]
          ~doc:
            "Test hook: the first submitted campaign's journal storage \
             always reports ENOSPC, so smoke tests can assert that a \
             journal fault fails only that campaign while the others \
             complete (doc/harden.md).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the campaign service daemon: concurrent campaigns, each on \
          its own thread taking turns with the others, at most $(b,--jobs) \
          domains in all, a JSON API with streaming progress, live /metrics \
          and /dashboard, graceful SIGTERM drain (doc/serve.md).")
    Term.(
      const run $ jobs_arg $ port $ port_file $ state_dir $ max_campaigns
      $ segment_bytes_arg $ inject_disk_fault)

(* The daemon-client term: --host/--port, the daemon every client
   subcommand targets. *)
type daemon = { host : string; port : int }

let daemon_term =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address of the running daemon.")
  in
  let port =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Port of the running daemon.")
  in
  Term.(const (fun host port -> { host; port }) $ host $ port)

let id_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ID" ~doc:"Campaign id, as returned by submit.")

(* One JSON request to the daemon: GET, or POST when [body] is given.
   Print the reply; a 2xx status exits 0, anything else exits 1 after
   the body (the daemon's JSON error objects are one line). *)
let json_request ?body d path =
  let reply =
    match body with
    | None -> Conferr_serve.Client.get_json ~host:d.host ~port:d.port ~path ()
    | Some json ->
      Conferr_serve.Client.post_json ~host:d.host ~port:d.port ~path json ()
  in
  match reply with
  | Error msg -> fail ~code:1 "%s" msg
  | Ok (status, json) ->
    print_endline (Json.to_string json);
    if status < 200 || status >= 300 then exit 1

let submit_cmd =
  let run d sut seed jobs_cap quorum breaker timeout retries fuel =
    let num n = Json.Num (float_of_int n) in
    let members =
      List.filter_map Fun.id
        [
          Some ("sut", Json.Str sut);
          Some ("seed", num seed);
          Option.map (fun n -> ("jobs", num n)) jobs_cap;
          Option.map (fun n -> ("quorum", num n)) quorum;
          Option.map (fun n -> ("breaker", num n)) breaker;
          Option.map (fun s -> ("timeout", Json.Num s)) timeout;
          Option.map (fun n -> ("retries", num n)) retries;
          Option.map (fun n -> ("fuel", num n)) fuel;
        ]
    in
    json_request ~body:(Json.Obj members) d "/campaigns"
  in
  let sut =
    Arg.(
      required
      & opt (some string) None
      & info [ "sut" ] ~docv:"SUT" ~doc:"System under test (validated by the \
                                         daemon).")
  in
  let opt_int name doc =
    Arg.(value & opt (some int) None & info [ name ] ~docv:"N" ~doc)
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-scenario deadline of this campaign (0 = off).")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a campaign to a running daemon; prints the accepted \
          campaign's status object (id, policy, journal path).")
    Term.(
      const run $ daemon_term $ sut $ seed_arg
      $ opt_int "jobs-cap" "Most helper domains this campaign takes of \
                            those the daemon has free (none: the main one)."
      $ opt_int "quorum" "Total attempts for crash-suspect outcomes (1 = off)."
      $ opt_int "breaker" "Consecutive-crash breaker threshold (0 = off)."
      $ timeout
      $ opt_int "retries" "Extra attempts after a timeout."
      $ opt_int "fuel" "Cooperative step budget per execution (0 = off).")

let status_cmd =
  let run d id =
    json_request d
      (match id with None -> "/campaigns" | Some id -> "/campaigns/" ^ id)
  in
  let id =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Campaign id; omit to list every campaign.")
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:"Show one campaign's status object, or list all campaigns.")
    Term.(const run $ daemon_term $ id)

let results_cmd =
  Cmd.v
    (Cmd.info "results"
       ~doc:"Fetch a finished campaign's outcome tally and per-scenario \
             results as JSON.")
    Term.(
      const (fun d id -> json_request d ("/campaigns/" ^ id ^ "/results"))
      $ daemon_term $ id_pos)

let watch_cmd =
  let run d id from =
    match
      Conferr_serve.Client.stream ~host:d.host ~port:d.port
        ~path:(Printf.sprintf "/campaigns/%s/events?from=%d" id from)
        ~on_line:print_endline ()
    with
    | Error msg -> fail ~code:1 "%s" msg
    | Ok 200 -> ()
    | Ok status -> fail ~code:1 "daemon answered %d" status
  in
  let from =
    Arg.(
      value & opt int 0
      & info [ "from" ] ~docv:"N"
          ~doc:"Skip the first $(docv) events (resume an interrupted watch).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Stream a campaign's progress events as JSON lines until it \
          finishes; the last line is the terminal campaign event.")
    Term.(const run $ daemon_term $ id_pos $ from)

let cancel_cmd =
  Cmd.v
    (Cmd.info "cancel"
       ~doc:"Drop the scenarios not yet started, wait for the running ones (a \
             hung one holds the reply); the journal stays resumable.")
    Term.(
      const (fun d id ->
          json_request ~body:(Json.Obj []) d ("/campaigns/" ^ id ^ "/cancel"))
      $ daemon_term $ id_pos)

let get_cmd =
  let run d path =
    let path = if String.length path > 0 && path.[0] = '/' then path else "/" ^ path in
    match
      Conferr_serve.Client.request ~host:d.host ~port:d.port ~meth:"GET" ~path ()
    with
    | Error msg -> fail ~code:1 "%s" msg
    | Ok (status, _, body) ->
      print_string body;
      if status >= 300 then exit 1
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH"
          ~doc:"Raw path to fetch, e.g. /metrics, /dashboard, /healthz or \
                /campaigns/ID/journal.")
  in
  Cmd.v
    (Cmd.info "get"
       ~doc:"Fetch one raw path from the daemon and print the body \
             (scripting helper for /metrics, /dashboard, journals).")
    Term.(const run $ daemon_term $ path)

let journal_diff_cmd =
  let run left right =
    require_journal_file left;
    require_journal_file right;
    (* The determinism contract (doc/serve.md) excludes wall-clock
       fields: elapsed and per-phase times vary run to run, everything
       else must match exactly. *)
    let normalize (e : Conferr_exec.Journal.entry) =
      Conferr_exec.Journal.entry_to_json
        { e with elapsed_ms = 0.; phase_ms = [] }
      |> Json.to_string
    in
    let load path = List.map normalize (load_journal path) in
    let l = load left and r = load right in
    if l = r then begin
      Printf.printf "%s and %s: identical (%d entries, wall-clock fields \
                     ignored)\n"
        left right (List.length l);
      exit 0
    end
    else begin
      if List.length l <> List.length r then
        Printf.printf "entry counts differ: %d vs %d\n" (List.length l)
          (List.length r);
      List.iteri
        (fun i (a, b) ->
          if a <> b then begin
            Printf.printf "entry %d differs:\n- %s\n+ %s\n" i a b
          end)
        (List.combine
           (List.filteri (fun i _ -> i < min (List.length l) (List.length r)) l)
           (List.filteri (fun i _ -> i < min (List.length l) (List.length r)) r));
      exit 1
    end
  in
  let left =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"LEFT" ~doc:"First journal.")
  in
  let right =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"RIGHT" ~doc:"Second journal.")
  in
  Cmd.v
    (Cmd.info "journal-diff"
       ~doc:
         "Compare two campaign journals modulo wall-clock fields (elapsed_ms, \
          phase_ms) — the serve determinism check: a daemon journal must \
          equal the one-shot CLI journal for the same campaign.  Exit 0 \
          identical, 1 different, 2 usage.")
    Term.(const run $ left $ right)

let main =
  Cmd.group
    (Cmd.info "conferr" ~version:"1.0.0"
       ~doc:"Assess resilience to human configuration errors (DSN'08 reproduction).")
    [
      list_cmd; profile_cmd; explore_cmd; chaos_cmd; fsck_cmd; benchmark_cmd;
      report_cmd; suggest_cmd; lint_cmd; analyze_cmd; gaps_cmd; infer_cmd;
      repair_cmd;
      table1_cmd;
      table2_cmd;
      table3_cmd; figure3_cmd; all_cmd; variations_cmd; semantic_cmd;
      serve_cmd; submit_cmd; status_cmd; results_cmd; watch_cmd; cancel_cmd;
      get_cmd; journal_diff_cmd;
    ]

(* Usage errors — an unknown SUT, a missing required option, a malformed
   value — exit 2 like every other usage error (doc/exec.md), not
   cmdliner's 124. *)
let () =
  exit
    (match Cmd.eval_value main with
     | Ok (`Ok () | `Help | `Version) -> 0
     | Error (`Parse | `Term) -> 2
     | Error `Exn -> 125)
