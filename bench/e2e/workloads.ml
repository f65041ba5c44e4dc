(* The workloads and their end-to-end runs: conferr driven as a black
   box, its outputs checked, its times reported at reference speed
   (speed.ml).  Why each workload exists is in README.md. *)

module Json = Conferr_obsv.Json
module Journal = Conferr_exec.Journal

(* SUTs are listed cheapest first, so a short run still covers the cheap
   ones. *)
type kind =
  | Campaigns of string list  (** closed loop of `conferr profile` runs *)
  | Serve of { rate : float; burst : int; suts : string list }
      (** open loop against `conferr serve`: arrivals/s, campaigns per
          arrival, SUT rotation *)
  | Replay of string list  (** closed loop of `conferr gaps|infer|repair` runs *)

let db = [ "appserver"; "postgres"; "mysql" ]

let all =
  [
    ("campaign-db", Campaigns db);
    ("campaign-heavy", Campaigns [ "djbdns"; "bind"; "apache" ]);
    (* the daemon is busy a fifth of the time at either load, so it keeps
       up while the host runs three times slower (README.md) *)
    ("serve-steady", Serve { rate = 6.; burst = 1; suts = db });
    ("serve-burst", Serve { rate = 2.; burst = 3; suts = db });
    (* apache stays out of the replay loop: one apache journal takes 3 s
       to replay, so a run would see a handful and its medians would
       follow the seeds drawn; campaign-heavy covers apache *)
    ("replay", Replay [ "appserver"; "djbdns"; "mysql"; "postgres"; "bind" ]);
  ]

type sample = {
  cmd : string;  (** the conferr subcommand, or "serve" for a daemon campaign *)
  sut : string;
  seed : int;
  start_ns : int64;  (** spawn, or the campaign's due time *)
  first_ns : int64;  (** first result the user can see *)
  stop_ns : int64;
  factor : float;  (** host slowdown at the time ({!Speed.factor}) *)
}

type e2e = {
  setup_s : float;
  samples : sample list;  (** one per campaign: a CLI run or a daemon campaign *)
  scenarios : int;
  busy_s : float;
      (** seconds the program took for them at reference speed; for an
          open loop, the wall time from the first due time to the last
          completion *)
  rss_kib : int;
  late_ms : float list;  (** how late the load generator issued each request *)
  refused : int;  (** submissions the daemon answered 429 *)
  ops : string list list;  (** the problems found with each operation *)
  note : string;
}

let deadline seconds = Int64.add (Proc.now_ns ()) (Int64.of_float (seconds *. 1e9))
let run_ms (r : Proc.run) = Proc.ms_between r.spawn_ns r.exit_ns

let sample_of (i : Cli.invocation) =
  {
    cmd = i.cmd;
    sut = i.sut;
    seed = i.seed;
    start_ns = i.run.spawn_ns;
    first_ns = i.run.first_out_ns;
    stop_ns = i.run.exit_ns;
    factor = i.factor;
  }

(* Closed loop: each spawn was due when the previous process exited. *)
let rec closed_loop_lateness = function
  | (prev : Cli.invocation) :: (next :: _ as rest) ->
    Proc.ms_between prev.run.exit_ns next.run.spawn_ns :: closed_loop_lateness rest
  | _ -> []

let max_rss invs =
  List.fold_left (fun m (i : Cli.invocation) -> max m i.run.hwm_kib) 0 invs

let busy_s invs =
  List.fold_left
    (fun s (i : Cli.invocation) -> s +. (run_ms i.run /. 1e3 /. i.factor))
    0. invs

let rows (i : Cli.invocation) = List.length (Cli.csv_rows i.run.out)

let campaigns ctx ~speed ~suts ~base ~seconds ~setup_reps =
  let setup_s = Cli.setup_s ctx ~speed ~n:setup_reps in
  let golden = Cli.golden_seed ctx in
  let warm = List.map (fun sut -> Cli.profile ctx ~sut ~seed:golden) suts in
  let invs = Cli.campaign_loop ctx ~speed ~suts ~seed:base ~until_ns:(deadline seconds) in
  {
    setup_s;
    samples = List.map sample_of invs;
    scenarios = List.fold_left (fun n i -> n + rows i) 0 invs;
    busy_s = busy_s invs;
    rss_kib = max_rss invs;
    late_ms = closed_loop_lateness invs;
    refused = 0;
    ops = List.map (Cli.check_profile ctx) (warm @ invs);
    note = "";
  }

let replay ctx ~speed ~suts ~base ~seconds ~setup_reps =
  let setup_s = Cli.setup_s ctx ~speed ~n:setup_reps in
  let golden_units =
    List.filter_map
      (fun sut ->
        Option.map
          (fun _ -> (sut, Cli.golden_seed ctx))
          (Cli.expected_member ctx [ "replay"; sut ]))
      suts
  in
  let golden =
    List.map (fun (sut, seed) -> Cli.profile ctx ~sut ~seed) golden_units
  in
  (* twice, for the determinism check *)
  let warm =
    List.concat_map
      (fun _ ->
        List.concat_map (fun (sut, seed) -> Cli.replay_unit ctx ~sut ~seed) golden_units)
      [ 1; 2 ]
  in
  let recorded, invs =
    Cli.replay_loop ctx ~speed ~suts ~seed:base ~until_ns:(deadline seconds)
  in
  let recorded = golden @ recorded in
  let entries =
    List.map (fun (i : Cli.invocation) -> ((i.sut, i.seed), rows i)) recorded
  in
  {
    setup_s;
    samples = List.map sample_of invs;
    (* an entry counts once per replay through gaps, infer and repair *)
    scenarios =
      List.fold_left
        (fun n (i : Cli.invocation) ->
          if i.cmd = "gaps" then n + List.assoc (i.sut, i.seed) entries else n)
        0 invs;
    busy_s = busy_s invs;
    rss_kib = max_rss invs;
    (* within a round: between rounds the next journals are recorded *)
    late_ms =
      List.concat_map
        (fun seed ->
          closed_loop_lateness
            (List.filter (fun (i : Cli.invocation) -> i.seed = seed) invs))
        (List.sort_uniq compare (List.map (fun (i : Cli.invocation) -> i.seed) invs));
    refused = 0;
    ops =
      List.map (Cli.check_profile ctx) recorded
      @ List.map (Cli.check_replay ctx) (warm @ invs)
      @ [ Cli.check_replay_determinism warm ];
    note = "";
  }

(* conferr_serve_submissions_total{result} in a /metrics exposition. *)
let submissions exposition result =
  match Conferr_obsv.Metrics.parse_exposition exposition with
  | Error _ -> None
  | Ok samples ->
    Some
      (List.fold_left
         (fun n (s : Conferr_obsv.Metrics.sample) ->
           if
             s.sample_name = "conferr_serve_submissions_total"
             && s.labels = [ ("result", result) ]
           then n + int_of_float s.value
           else n)
         0 samples)

(* Every campaign is done, its journal fsck-clean with one entry per
   scenario. *)
let check_campaign ctx (c : Loadgen.campaign) =
  let where = Printf.sprintf "serve %s seed %d (%s)" c.sut c.seed c.cid in
  if c.status <> "done" then [ where ^ ": " ^ c.status ]
  else
    let entries = List.length (Journal.load c.journal) in
    let expected =
      Option.bind (Cli.expected_member ctx [ "scenarios"; c.sut ]) Json.num
    in
    (if Journal.clean (Journal.fsck c.journal) then []
     else [ where ^ ": journal not fsck-clean" ])
    @
    if entries = c.total && expected = Some (float_of_int c.total) then []
    else
      [ Printf.sprintf "%s: %d journal entries for %d scenarios" where entries c.total ]

(* The daemon's journal equals the one-shot CLI's for the same campaign. *)
let check_against_cli ctx (c : Loadgen.campaign) =
  let cli = Cli.profile ctx ~sut:c.sut ~seed:c.seed in
  let diff =
    Proc.run ctx.conferr
      [ "journal-diff"; c.journal; Cli.journal_path ctx ~sut:c.sut ~seed:c.seed ]
  in
  if cli.run.code = 0 && diff.code = 0 then []
  else
    [
      Printf.sprintf "serve %s seed %d: journal differs from the CLI's: %s" c.sut c.seed
        diff.out;
    ]

let serve ctx ~speed ~rate ~burst ~suts ~seed ~base ~seconds ~setup_reps =
  let start name =
    Loadgen.start ~conferr:ctx.Cli.conferr
      ~dir:(Files.fresh_dir (Filename.concat ctx.dir name))
  in
  let setup_s =
    Stats.median
      (List.init setup_reps (fun i ->
           Speed.sample speed;
           let d, s = start (Printf.sprintf "setup-%d" i) in
           let stopped = Loadgen.stop d in
           if stopped.code <> 0 then
             failwith (Printf.sprintf "conferr serve exited %d" stopped.code);
           s /. Speed.factor speed))
  in
  let d, _ = start "daemon" in
  let camps =
    Loadgen.schedule ~rng:(Random.State.make [| seed |]) ~rate ~burst ~seconds ~suts
      ~seeds:(List.init 10 (fun k -> base + k))
      ~start_ns:(deadline 0.02)
  in
  let scrape =
    try Loadgen.run_open_loop d camps ~speed
    with Failure msg ->
      ignore (Loadgen.stop d);
      failwith msg
  in
  let stopped = Loadgen.stop d in
  let camps = Array.to_list camps in
  let ok = List.filter (fun (c : Loadgen.campaign) -> c.status = "done") camps in
  (* the daemon's own count of what it accepted and refused *)
  let acked =
    List.length (List.filter (fun (c : Loadgen.campaign) -> c.ack_ns > 0L) camps)
  in
  let refused =
    List.length (List.filter (fun (c : Loadgen.campaign) -> c.refused) camps)
  in
  let scrape_check =
    match scrape with
    | Some text
      when submissions text "accepted" = Some acked
           && Option.value (submissions text "rejected") ~default:0 = refused -> []
    | _ ->
      [
        Printf.sprintf "/metrics disagrees with the client (%d accepted, %d refused)"
          acked refused;
      ]
  in
  let p90 =
    Stats.quantile 0.9
      (List.map (fun (c : Loadgen.campaign) -> Proc.ms_between c.due_ns c.done_ns) ok)
  in
  {
    setup_s;
    samples =
      List.map
        (fun (c : Loadgen.campaign) ->
          {
            cmd = "serve";
            sut = c.sut;
            seed = c.seed;
            start_ns = c.due_ns;
            first_ns = c.first_ns;
            stop_ns = c.done_ns;
            factor = c.factor;
          })
        ok;
    scenarios = List.fold_left (fun n (c : Loadgen.campaign) -> n + c.total) 0 ok;
    (* what the open loop offered, unless the daemon fell behind; the
       daemon's cost shows in the latencies *)
    busy_s =
      Proc.ms_between
        (List.fold_left (fun t (c : Loadgen.campaign) -> min t c.due_ns) Int64.max_int ok)
        (List.fold_left (fun t (c : Loadgen.campaign) -> max t c.done_ns) 0L ok)
      /. 1e3;
    rss_kib = stopped.hwm_kib;
    late_ms =
      List.map (fun (c : Loadgen.campaign) -> Proc.ms_between c.due_ns c.sent_ns) camps;
    refused;
    ops =
      List.map (check_campaign ctx) camps
      (* one campaign per SUT against the CLI *)
      @ List.filter_map
          (fun sut ->
            Option.map (check_against_cli ctx)
              (List.find_opt (fun (c : Loadgen.campaign) -> c.sut = sut) ok))
          suts
      @ [
          scrape_check;
          (if stopped.code = 0 then []
           else [ Printf.sprintf "conferr serve exited %d" stopped.code ]);
        ];
    note =
      Printf.sprintf
        "%d campaigns, %d at a time %g times a second, %d refused (429); latency limit \
         p90 <= 1000 ms with no refusals: %s"
        (List.length camps) burst rate refused
        (if p90 <= 1000. && refused = 0 then "met" else "missed");
  }

let run ctx kind ~speed ~seed ~seconds ~setup_reps =
  (* campaign seeds of distinct --seed values never overlap *)
  let base = seed * 1000 in
  match kind with
  | Campaigns suts -> campaigns ctx ~speed ~suts ~base ~seconds ~setup_reps
  | Serve { rate; burst; suts } ->
    serve ctx ~speed ~rate ~burst ~suts ~seed ~base ~seconds ~setup_reps
  | Replay suts -> replay ctx ~speed ~suts ~base ~seconds ~setup_reps

(* The end-to-end metrics, every time at reference speed. *)
let metrics r =
  let at_ref f = List.map (fun s -> f s /. s.factor) r.samples in
  let firsts = at_ref (fun s -> Proc.ms_between s.start_ns s.first_ns) in
  let lat = at_ref (fun s -> Proc.ms_between s.start_ns s.stop_ns) in
  [
    ("setup_s", r.setup_s);
    ("scenarios_per_s", float_of_int r.scenarios /. r.busy_s);
    ("campaign_p50_ms", Stats.quantile 0.5 lat);
    ("campaign_p90_ms", Stats.quantile 0.9 lat);
    ("first_result_p50_ms", Stats.quantile 0.5 firsts);
    ("first_result_p90_ms", Stats.quantile 0.9 firsts);
    ("peak_rss_mb", float_of_int r.rss_kib /. 1024.);
  ]
