(* Allocation budgets, in a process of its own.  Words allocated per
   scenario are exact for a given build, where wall-clock ratios on a
   shared host are not, so they can gate tier-1.

   The journal's budget: what a v2 journal adds to [Executor.run_from]
   over a bare run, in words per scenario (minor plus directly-major
   allocations), on the seed-42 paper faultload at jobs 1.  Lint's
   budget, below: words per checker call over that faultload's
   mutants.  Boot's budget: a bare run itself, per scenario.
   Generation's: drawing the faultload, per scenario.  Repair's, last:
   a journal-mode repair, per target. *)

module Executor = Conferr_exec.Executor

let journal_budget = 400

let suts = [ Suts.Mini_pg.sut; Suts.Mini_mysql.sut; Suts.Mini_appserver.sut ]

(* Words allocated by the calling domain so far: the minor heap
   ([Gc.minor_words] counts the current minor heap exactly, where
   [Gc.counters] lags until the next collection) plus what went straight
   to the major heap (promotions are not new allocations).  The major
   heap's counts lag too, until the next major slice: one minor
   collection and one slice first make them exact, where a window read
   without them drifted by a tenth with what ran before it. *)
let words () =
  Gc.minor ();
  ignore (Gc.major_slice 0);
  let s = Gc.quick_stat () in
  Gc.minor_words () +. (s.Gc.major_words -. s.Gc.promoted_words)

let allocated f =
  let before = words () in
  f ();
  words () -. before

let paper_faultload (sut : Suts.Sut.t) =
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "%s: %s" sut.sut_name msg
  | Ok base ->
    ( base,
      Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create 42)
        ~faultload:Conferr.Campaign.paper_faultload sut base )

let run_from ~sut ~base ~scenarios journal_path () =
  ignore
    (Executor.run_from
       ~settings:{ Executor.default_settings with journal_path }
       ~on_event:ignore ~sut ~base ~scenarios ())

(* the least of three, against stray allocation *)
let least f = List.fold_left Float.min infinity (List.init 3 (fun _ -> allocated f))

let test_journal_budget () =
  List.iter
    (fun (sut : Suts.Sut.t) ->
      let base, scenarios = paper_faultload sut in
      let path = Filename.temp_file "conferr_budget" ".jsonl" in
      let run = run_from ~sut ~base ~scenarios in
      (* the first runs pay for one-time initialisation *)
      run None ();
      run (Some path) ();
      let bare = least (run None) in
      let journaled = least (run (Some path)) in
      Sys.remove path;
      let n = float_of_int (List.length scenarios) in
      let per_scenario = (journaled -. bare) /. n in
      Printf.printf "%s: %d scenarios, bare %.0f words/scenario, journal adds %.0f\n%!"
        sut.sut_name (List.length scenarios) (bare /. n) per_scenario;
      if per_scenario > float_of_int journal_budget then
        Alcotest.failf "%s: the v2 journal adds %.0f words per scenario, budget %d"
          sut.sut_name per_scenario journal_budget)
    suts

(* Lint's budget: words per [Checker.run] with the deep rule set over
   the seed-42 paper-faultload mutants (typo and semantic), built by
   apply, serialize and parse as `conferr gaps` builds them.  Measured
   9,696 (bind), 4,099 (djbdns), 4,420 (mysql) and 3,674 (postgres);
   each budget is about a quarter above.  Rules that each recompute what
   they read — the site walk, the simulator walk, the decoded zone —
   instead of sharing one view per call allocate 2.2-4.3 times as
   much. *)
let lint_budget =
  [ ("bind", 12_000); ("djbdns", 5_200); ("mysql", 5_600); ("postgres", 4_600) ]

let lint_suts =
  [ Suts.Mini_bind.sut; Suts.Mini_djbdns.sut; Suts.Mini_mysql.sut; Suts.Mini_pg.sut ]

let test_lint_budget () =
  let over =
    List.filter_map
      (fun (sut : Suts.Sut.t) ->
        let base = Result.get_ok (Conferr.Engine.parse_default_config sut) in
        let rules =
          Suts.Dataflow_rules.deepen sut.sut_name
            (Option.get (Suts.Lint_rules.for_sut sut.sut_name))
        in
        let sets =
          Conferr.Faultload.journal_scenarios ~seed:42 sut base
          |> List.filter_map (fun (sc : Errgen.Scenario.t) ->
                 match sc.apply base with
                 | Error _ -> None
                 | Ok mutated -> (
                   match Conferr.Engine.serialize_config sut mutated with
                   | Error _ -> None
                   | Ok files -> Result.to_option (Conferr.Engine.parse_config sut files)))
        in
        let lint () =
          List.iter
            (fun set ->
              ignore (Conferr_lint.Checker.run ~nearest:Conferr.Suggest.nearest ~rules set))
            sets
        in
        lint ();
        let per_run = least lint /. float_of_int (List.length sets) in
        let budget = List.assoc sut.sut_name lint_budget in
        Printf.printf "%s: %d mutants, %.0f words per Checker.run (budget %d)\n%!"
          sut.sut_name (List.length sets) per_run budget;
        if per_run > float_of_int budget then
          Some
            (Printf.sprintf "%s: Checker.run allocates %.0f words per mutant, budget %d"
               sut.sut_name per_run budget)
        else None)
      lint_suts
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* Boot's budget: words per scenario of a bare [Executor.run_from] (no
   journal, observers off), on every SUT.  Measured 8,947 (apache),
   8,085 (bind), 6,859 (djbdns), 1,391 (postgres), 2,025 (mysql) and
   2,897 (appserver); each budget is 14-15% above, mysql's 9%.  A
   second serialization of each mutant goes over on every SUT: it reads
   11,392 (apache), 9,555 (bind), 8,370 (djbdns), 1,675 (postgres),
   2,289 (mysql) and 4,100 (appserver).  An httpd.conf parser that
   first splits its text into a list of lines, then trims a copy of
   each line, reads 12,463 on apache. *)
let boot_budget =
  [
    ("apache", 10_300); ("bind", 9_300); ("djbdns", 7_900); ("postgres", 1_600);
    ("mysql", 2_200); ("appserver", 3_310);
  ]

let boot_suts =
  [ Suts.Mini_apache.sut; Suts.Mini_bind.sut; Suts.Mini_djbdns.sut ] @ suts

let test_boot_budget () =
  let over =
    List.filter_map
      (fun (sut : Suts.Sut.t) ->
        let base, scenarios = paper_faultload sut in
        let run = run_from ~sut ~base ~scenarios None in
        run ();
        let per_scenario = least run /. float_of_int (List.length scenarios) in
        let budget = List.assoc sut.sut_name boot_budget in
        Printf.printf "%s: %d scenarios, bare run_from %.0f words/scenario (budget %d)\n%!"
          sut.sut_name (List.length scenarios) per_scenario budget;
        if per_scenario > float_of_int budget then
          Some
            (Printf.sprintf "%s: a bare run_from allocates %.0f words per scenario, budget %d"
               sut.sut_name per_scenario budget)
        else None)
      boot_suts
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* Generation's budget: words per scenario of [Campaign.typo_scenarios]
   drawing each SUT's seed-42 paper faultload.  Measured 986 (apache),
   931 (bind), 973 (djbdns), 965 (postgres), 1,034 (mysql) and 1,097
   (appserver) with pools of slips; each budget is about 15% above.
   Pools that build every slip's word and deduplicate by string read
   1,314, 1,213, 1,254, 1,247, 1,351 and 1,466 (1,572, 1,438, 1,518,
   1,502, 1,622 and 1,787 when each lookup also scanned the layout for
   neighbours). *)
let generate_budget =
  [
    ("apache", 1_135); ("bind", 1_070); ("djbdns", 1_120); ("postgres", 1_110);
    ("mysql", 1_190); ("appserver", 1_260);
  ]

let test_generate_budget () =
  let over =
    List.filter_map
      (fun (sut : Suts.Sut.t) ->
        let base, scenarios = paper_faultload sut in
        let generate () =
          ignore
            (Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create 42)
               ~faultload:Conferr.Campaign.paper_faultload sut base)
        in
        let per_scenario = least generate /. float_of_int (List.length scenarios) in
        let budget = List.assoc sut.sut_name generate_budget in
        Printf.printf "%s: %d scenarios, %.0f words per generated scenario (budget %d)\n%!"
          sut.sut_name (List.length scenarios) per_scenario budget;
        if per_scenario > float_of_int budget then
          Some
            (Printf.sprintf "%s: generation allocates %.0f words per scenario, budget %d"
               sut.sut_name per_scenario budget)
        else None)
      boot_suts
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* Repair's budget: words per target of a journal-mode
   [Pipeline.run] (jobs 1) over the journal of each SUT's seed-42
   faultload, as `conferr repair --journal` replays it.  Measured
   20,656 (apache), 14,031 (bind), 7,590 (mysql) and 12,035
   (postgres); each budget is about 15% above.  Judging every
   (target, candidate) pair on its own instead of each distinct
   serialized configuration once reads 43,144, 29,461, 18,038 and
   22,149; building a typo pool per vocabulary word to recognise a slip
   reads 14,004 on mysql and 17,755 on postgres; both together read
   24,452 on mysql and 27,868 on postgres. *)
let repair_budget =
  [ ("apache", 23_800); ("bind", 16_100); ("mysql", 8_700); ("postgres", 13_800) ]

let repair_suts = [ Suts.Mini_apache.sut; Suts.Mini_bind.sut; Suts.Mini_mysql.sut; Suts.Mini_pg.sut ]

let test_repair_budget () =
  let over =
    List.filter_map
      (fun (sut : Suts.Sut.t) ->
        let base = Result.get_ok (Conferr.Engine.parse_default_config sut) in
        let scenarios = Conferr.Faultload.journal_scenarios ~seed:42 sut base in
        let path = Filename.temp_file "conferr_budget" ".jsonl" in
        run_from ~sut ~base ~scenarios (Some path) ();
        let entries = Conferr_exec.Journal.load path in
        Sys.remove path;
        let targets = Conferr_repair.Pipeline.journal_targets ~scenarios ~stock:base entries in
        let repair () =
          ignore
            (Conferr_repair.Pipeline.run ~nearest:Conferr.Suggest.nearest ~sut
               ~rules:(Option.get (Suts.Lint_rules.for_sut sut.sut_name))
               ~stock:base targets)
        in
        repair ();
        let per_target = least repair /. float_of_int (List.length targets) in
        let budget = List.assoc sut.sut_name repair_budget in
        Printf.printf "%s: %d targets, %.0f words per repaired target (budget %d)\n%!"
          sut.sut_name (List.length targets) per_target budget;
        if per_target > float_of_int budget then
          Some
            (Printf.sprintf "%s: repair allocates %.0f words per target, budget %d"
               sut.sut_name per_target budget)
        else None)
      repair_suts
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The observers' budget: words per scenario that [metrics] plus
   [trace] add to a bare [Executor.run_from] on every SUT's seed-42
   faultload, with a fresh registry and trace per run as a campaign
   gets them (the trace's ring, 1,024 scenarios, counts too): the
   clock's phase marks, the trace's spans and the metric updates.
   Measured 246 (apache), 278 (bind), 297 (djbdns), 237 (postgres),
   245 (mysql) and 282 (appserver), down from 408, 458, 482, 385, 400
   and 451 when every update looked its cell up by family name and
   label list; each budget is about 15% above.  Looking the executor's
   cells up by label list again, per scenario, reads 647, 724, 757,
   610, 633 and 707. *)
let observer_budget =
  [
    ("apache", 285); ("bind", 320); ("djbdns", 340); ("postgres", 275);
    ("mysql", 285); ("appserver", 325);
  ]

let test_observer_budget () =
  let over =
    List.filter_map
      (fun (sut : Suts.Sut.t) ->
        let base, scenarios = paper_faultload sut in
        let run settings () =
          ignore (Executor.run_from ~settings ~on_event:ignore ~sut ~base ~scenarios ())
        in
        let bare = Executor.default_settings in
        let observed () =
          run
            {
              bare with
              trace = Some (Conferr_obsv.Trace.create ~capacity:1024 ());
              metrics = Some (Conferr_obsv.Metrics.create ());
            }
            ()
        in
        run bare ();
        observed ();
        let per_scenario =
          (least observed -. least (run bare)) /. float_of_int (List.length scenarios)
        in
        let budget = List.assoc sut.sut_name observer_budget in
        Printf.printf "%s: %d scenarios, the observers add %.0f words/scenario (budget %d)\n%!"
          sut.sut_name (List.length scenarios) per_scenario budget;
        if per_scenario > float_of_int budget then
          Some
            (Printf.sprintf "%s: metrics and trace add %.0f words per scenario, budget %d"
               sut.sut_name per_scenario budget)
        else None)
      boot_suts
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The daemon's budgets.  A closed campaign keeps its summary fields,
   its events and its result rows: live words per closed campaign, after
   [Gc.full_major], over a window of 12 campaigns (postgres, mysql and
   appserver in turn, seed 42) that follows one campaign of each, which
   create their SUTs' metric cells.  Measured 4,611; a campaign that
   kept its faultload and its whole profile read 14,594.  A refused
   submission, answered 503 by a draining daemon or 429 by a full one,
   is decided before the faultload is built: 602-611 words through
   [Daemon.handle], where generating first read 163,284-163,288.  Each
   budget is about 15% above. *)
let closed_campaign_budget = 5_300
let refused_budget = 700

module Daemon = Conferr_serve.Daemon
module Http = Conferr_serve.Http

let state_dir () =
  let path = Filename.temp_file "conferr_budget" ".state" in
  Sys.remove path;
  path

let remove_state_dir dir =
  Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
  Sys.rmdir dir

let post_campaign sut =
  let body = Printf.sprintf {|{"sut":%S,"seed":42}|} sut in
  { Http.meth = "POST"; target = "/campaigns"; path = "/campaigns"; query = [];
    version = "HTTP/1.1"; headers = []; body }

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_closed_campaign_budget () =
  let dir = state_dir () in
  let daemon = Daemon.create ~jobs:1 ~state_dir:dir () in
  let db = [| "mini_pg"; "mini_mysql"; "mini_appserver" |] in
  let run k =
    match Daemon.handle daemon (post_campaign db.(k mod 3)) with
    | `Response { Http.status = 202; resp_body; _ } ->
      let id =
        Option.bind (Result.to_option (Conferr_obsv.Json.of_string resp_body)) (fun j ->
            Option.bind (Conferr_obsv.Json.member "id" j) Conferr_obsv.Json.str)
      in
      let c = Option.get (Option.bind id (Daemon.find daemon)) in
      Daemon.wait daemon c;
      if Daemon.status_label c <> "done" then
        Alcotest.failf "campaign %s ended %s" (Option.get id) (Daemon.status_label c)
    | _ -> Alcotest.fail "the daemon refused a campaign"
  in
  for k = 0 to 2 do run k done;
  let window = 12 in
  let before = live_words () in
  for k = 0 to window - 1 do run k done;
  let per_campaign = (live_words () - before) / window in
  Daemon.drain daemon;
  remove_state_dir dir;
  Printf.printf "a closed campaign keeps %d live words (budget %d)\n%!" per_campaign
    closed_campaign_budget;
  if per_campaign > closed_campaign_budget then
    Alcotest.failf "a closed daemon campaign keeps %d live words, budget %d" per_campaign
      closed_campaign_budget

let test_refused_budget () =
  let refused name daemon expected =
    let submit () =
      match Daemon.handle daemon (post_campaign "mini_pg") with
      | `Response { Http.status; _ } when status = expected -> ()
      | _ -> Alcotest.failf "%s: the submission was not answered %d" name expected
    in
    submit ();
    let words = least submit in
    Printf.printf "%s: a refused submission allocates %.0f words (budget %d)\n%!" name
      words refused_budget;
    if words > float_of_int refused_budget then
      Some
        (Printf.sprintf "%s: a refused submission allocates %.0f words, budget %d" name words
           refused_budget)
    else None
  in
  let draining_dir = state_dir () and full_dir = state_dir () in
  let draining = Daemon.create ~jobs:1 ~state_dir:draining_dir () in
  Daemon.drain draining;
  (* room for no campaign: full from the start, so no campaign runs
     beside the measurement *)
  let full = Daemon.create ~jobs:1 ~max_campaigns:0 ~state_dir:full_dir () in
  let over =
    List.filter_map Fun.id
      [ refused "draining (503)" draining 503; refused "full (429)" full 429 ]
  in
  Daemon.drain full;
  remove_state_dir draining_dir;
  remove_state_dir full_dir;
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* The listener's budget: live words per connection between the 100th
   and the 1,100th, each a GET /healthz with [connection: close] through
   [Daemon.listen].  A listener that kept every connection's thread
   until it stopped read 10 words per connection; one that keeps only
   the open connections' threads reads 0. *)
let connection_budget = 1.

let test_connection_budget () =
  let dir = state_dir () in
  let daemon = Daemon.create ~jobs:1 ~state_dir:dir () in
  let saved = List.map (fun s -> (s, Sys.signal s Sys.Signal_default)) [ Sys.sigterm; Sys.sigint ] in
  let port = Atomic.make 0 in
  let listener =
    Thread.create (fun () -> Daemon.listen daemon ~port:0 ~banner:(Atomic.set port) ()) ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get port = 0 && Unix.gettimeofday () < deadline do Thread.delay 0.01 done;
  if Atomic.get port = 0 then Alcotest.fail "the daemon did not listen";
  let request = "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n" in
  let buf = Bytes.create 512 in
  let connection () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Atomic.get port));
    Http.write_all fd request;
    (* the daemon closes its socket once it has let go of the connection *)
    while Unix.read fd buf 0 (Bytes.length buf) > 0 do () done;
    Unix.close fd
  in
  for _ = 1 to 100 do connection () done;
  let before = live_words () in
  for _ = 1 to 1_000 do connection () done;
  let per_connection = float_of_int (live_words () - before) /. 1_000. in
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  Thread.join listener;
  List.iter (fun (s, b) -> Sys.set_signal s b) saved;
  remove_state_dir dir;
  Printf.printf "a closed connection keeps %.2f live words (budget %.0f)\n%!" per_connection
    connection_budget;
  if per_connection > connection_budget then
    Alcotest.failf "a closed connection keeps %.2f live words, budget %.0f" per_connection
      connection_budget

let () =
  Alcotest.run "budget"
    [
      ( "allocation",
        [
          Alcotest.test_case "journal words per scenario within budget" `Quick
            test_journal_budget;
          Alcotest.test_case "lint words per checker call within budget" `Quick
            test_lint_budget;
          Alcotest.test_case "boot words per scenario within budget" `Quick
            test_boot_budget;
          Alcotest.test_case "generation words per scenario within budget" `Quick
            test_generate_budget;
          Alcotest.test_case "repair words per target within budget" `Quick
            test_repair_budget;
          Alcotest.test_case "observer words per scenario within budget" `Quick
            test_observer_budget;
          Alcotest.test_case "daemon live words per closed campaign within budget" `Quick
            test_closed_campaign_budget;
          Alcotest.test_case "daemon words per refused submission within budget" `Quick
            test_refused_budget;
          Alcotest.test_case "daemon live words per closed connection within budget" `Quick
            test_connection_budget;
        ] );
    ]
