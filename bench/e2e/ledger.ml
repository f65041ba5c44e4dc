(* The traced run's in-process ledger: for each campaign of the workload,
   the benchmark calls each layer's public functions itself and records
   a span around every call, so the per-layer costs come from one
   stopwatch.  A unit runs four stages over one (SUT, seed):

   - stage.campaign — the path `conferr profile --csv --journal` takes:
     parse the stock configuration, generate the typo faultload, run it
     through the executor with a v2 journal, render the CSV;
   - stage.layers — the same scenarios again, one layer at a time: journal
     load, v2 and v3 appends and a checkpoint of the recorded entries; per
     scenario apply, serialize, re-parse and sandboxed boot+test; the
     executor without a journal, with the observers off and on;
   - stage.replay — what `conferr gaps --deep`, `infer` and `repair` do with
     the journal, `--format json`;
   - stage.serve — the campaign through the route table of a daemon of its
     own: submission, wait for the first finished scenario, completion.

   Every workload runs every stage over its own inputs, so each layer is
   measured on each workload; the stage matching the workload's
   end-to-end path is the one compared against it. *)

module Json = Conferr_obsv.Json
module Journal = Conferr_exec.Journal
module Executor = Conferr_exec.Executor
module Daemon = Conferr_serve.Daemon

type t = {
  spans : Spans.t;
  dir : string;
  mutable units : int;
  mutable generated : int;  (** scenarios out of errgen.generate *)
  mutable piecewise : int;  (** scenarios run through stage.layers *)
  mutable not_applicable : int;  (** of those, failed to apply or serialize *)
  mutable crashed : int;  (** of those, crashed under sandbox.boot_and_test *)
  mutable loaded : int;  (** entries out of journal.load *)
  mutable journal_bytes : int;
  mutable journal_entries : int;
  mutable scanned : int;  (** entries through lint.scan *)
  mutable mined : int;  (** entries through infer.run *)
  mutable targets : int;
  mutable validated : int;
  mutable repaired : int;
}

let create spans ~dir =
  {
    spans; dir; units = 0; generated = 0; piecewise = 0; not_applicable = 0; crashed = 0;
    loaded = 0;
    journal_bytes = 0; journal_entries = 0; scanned = 0; mined = 0; targets = 0;
    validated = 0; repaired = 0;
  }

let stock sut =
  match Conferr.Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> failwith msg

let campaign_stage t ~cid (sut : Suts.Sut.t) ~seed ~journal =
  let span name f = Spans.with_span t.spans ~cid name f in
  span "stage.campaign" (fun () ->
      let base = span "engine.parse_default" (fun () -> stock sut) in
      let scenarios =
        span "errgen.generate" (fun () ->
            Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
              ~faultload:Conferr.Campaign.paper_faultload sut base)
      in
      t.generated <- t.generated + List.length scenarios;
      let settings =
        {
          Executor.default_settings with
          campaign_seed = seed;
          journal_path = Some journal;
        }
      in
      let profile, _ =
        span "exec.run_from" (fun () ->
            Executor.run_from ~settings ~sut ~base ~scenarios ())
      in
      ignore (span "core.profile_csv" (fun () -> Conferr.Profile.to_csv profile));
      (base, scenarios))

let layers_stage t ~cid ~order (sut : Suts.Sut.t) ~seed ~base ~scenarios ~journal =
  let span name f = Spans.with_span t.spans ~cid name f in
  span "stage.layers" (fun () ->
      let entries = span "journal.load" (fun () -> Journal.load journal) in
      t.loaded <- t.loaded + List.length entries;
      t.journal_bytes <- t.journal_bytes + (Unix.stat journal).Unix.st_size;
      t.journal_entries <- t.journal_entries + List.length entries;
      let append name writer =
        Fun.protect
          ~finally:(fun () -> Journal.close writer)
          (fun () ->
            List.iter (fun e -> span name (fun () -> Journal.append writer e)) entries)
      in
      append "journal.append.v2" (Journal.open_append ~fresh:true (journal ^ ".v2"));
      append "journal.append.v3"
        (Journal.open_append ~fresh:true ~segment_bytes:(1 lsl 20) (journal ^ ".v3"));
      span "journal.checkpoint" (fun () -> Journal.checkpoint (journal ^ ".v2") entries);
      let not_applicable () = t.not_applicable <- t.not_applicable + 1 in
      List.iter
        (fun (sc : Errgen.Scenario.t) ->
          match
            span "errgen.apply" (fun () ->
                try sc.apply base with exn -> Error (Printexc.to_string exn))
          with
          | Error _ -> not_applicable ()
          | Ok mutated -> (
            match
              span "engine.serialize" (fun () ->
                  Conferr.Engine.serialize_config sut mutated)
            with
            | Error _ -> not_applicable ()
            | Ok files -> (
              ignore
                (span "engine.parse" (fun () -> Conferr.Engine.parse_config sut files));
              match
                span "sandbox.boot_and_test" (fun () ->
                    Conferr_harden.Sandbox.boot_and_test sut files)
              with
              | Conferr.Outcome.Crashed _ -> t.crashed <- t.crashed + 1
              | _ -> ())))
        scenarios;
      t.piecewise <- t.piecewise + List.length scenarios;
      let run name settings =
        ignore
          (span name (fun () -> Executor.run_from ~settings ~sut ~base ~scenarios ()))
      in
      let bare = { Executor.default_settings with campaign_seed = seed } in
      let observed () =
        {
          bare with
          trace = Some (Conferr_obsv.Trace.create ~capacity:1024 ());
          metrics = Some (Conferr_obsv.Metrics.create ());
        }
      in
      (* alternate which runs first, so neither always runs warm *)
      if order then begin
        run "exec.run_from.bare" bare;
        run "exec.run_from.observed" (observed ())
      end
      else begin
        run "exec.run_from.observed" (observed ());
        run "exec.run_from.bare" bare
      end)

let replay_stage t ~cid (sut : Suts.Sut.t) ~seed ~journal =
  let span name f = Spans.with_span t.spans ~cid name f in
  span "stage.replay" (fun () ->
      let rules =
        match Suts.Lint_rules.for_sut sut.sut_name with
        | Some r -> r
        | None -> failwith ("no rule set for " ^ sut.sut_name)
      in
      let nearest = Conferr.Suggest.nearest in
      let prepare () =
        let entries = span "journal.load" (fun () -> Journal.load journal) in
        t.loaded <- t.loaded + List.length entries;
        let base = span "engine.parse_default" (fun () -> stock sut) in
        let scenarios =
          span "errgen.regenerate" (fun () ->
              Conferr.Faultload.journal_scenarios ~seed sut base)
        in
        (entries, base, scenarios)
      in
      span "replay.gaps" (fun () ->
          let entries, base, scenarios = prepare () in
          let report =
            span "lint.scan" (fun () ->
                Conferr_lint_replay.scan ~jobs:1 ~nearest ~deep:true ~sut ~rules
                  ~scenarios ~entries ~base ())
          in
          t.scanned <- t.scanned + List.length entries;
          ignore
            (span "lint.report" (fun () ->
                 Json.to_string (Conferr_lint_replay.to_json report))));
      span "replay.infer" (fun () ->
          let entries, base, scenarios = prepare () in
          let result =
            span "infer.run" (fun () ->
                Conferr_infer.Pipeline.run ~jobs:1 ~nearest ~sut ~rules ~scenarios
                  ~entries ~base
                  ~thresholds:
                    { Conferr_infer.Confidence.min_support = 1; min_confidence = 0.5 }
                  ())
          in
          t.mined <- t.mined + List.length entries;
          ignore
            (span "infer.report" (fun () ->
                 Json.to_string (Conferr_infer.Infer_report.to_json result))));
      span "replay.repair" (fun () ->
          let entries, base, scenarios = prepare () in
          let targets =
            span "repair.targets" (fun () ->
                Conferr_repair.Pipeline.journal_targets ~scenarios ~stock:base entries)
          in
          let result =
            span "repair.run" (fun () ->
                Conferr_repair.Pipeline.run ~jobs:1 ~nearest ~sut ~rules ~stock:base
                  targets)
          in
          let repaired, _, _, _ = Conferr_repair.Pipeline.counts result in
          t.targets <- t.targets + List.length targets;
          t.validated <- t.validated + result.validated;
          t.repaired <- t.repaired + repaired;
          ignore
            (span "repair.report" (fun () ->
                 Json.to_string (Conferr_repair.Repair_report.to_json result)))))

let submit_request ~sut ~seed =
  let body =
    Json.to_string
      (Json.Obj [ ("sut", Json.Str sut); ("seed", Json.Num (float_of_int seed)) ])
  in
  {
    Conferr_serve.Http.meth = "POST";
    target = "/campaigns";
    path = "/campaigns";
    query = [];
    version = "HTTP/1.1";
    headers =
      [
        ("content-type", "application/json");
        ("content-length", string_of_int (String.length body));
      ];
    body;
  }

(* A daemon of its own per unit, drained after it: a daemon keeps every
   campaign it ran, and a heap grown by earlier units would slow the
   later units' stages. *)
let serve_stage t ~cid ~sut ~seed =
  let span name f = Spans.with_span t.spans ~cid name f in
  let state_dir = Filename.concat t.dir (Printf.sprintf "serve-%d" t.units) in
  let daemon = Daemon.create ~jobs:1 ~state_dir () in
  Fun.protect ~finally:(fun () -> Daemon.drain daemon) @@ fun () ->
  span "stage.serve" (fun () ->
      let campaign =
        match
          span "serve.submit" (fun () -> Daemon.handle daemon (submit_request ~sut ~seed))
        with
        | `Response { Conferr_serve.Http.status = 202; resp_body; _ } -> (
          match Json.of_string resp_body with
          | Ok j ->
            Option.bind (Option.bind (Json.member "id" j) Json.str) (Daemon.find daemon)
          | Error _ -> None)
        | _ -> None
      in
      let c =
        match campaign with
        | Some c -> c
        | None -> failwith "in-process daemon refused a campaign"
      in
      span "serve.queue_wait" (fun () ->
          let finished = String.starts_with ~prefix:"{\"event\":\"finished\"" in
          let rec wait from =
            let lines, closed = Daemon.events_after daemon c from in
            if not (closed || List.exists finished lines) then begin
              Unix.sleepf 0.0002;
              wait (from + List.length lines)
            end
          in
          wait 0);
      span "serve.run" (fun () -> Daemon.wait daemon c);
      if Daemon.status_label c <> "done" then
        failwith ("in-process campaign ended " ^ Daemon.status_label c))

(* One unit over (SUT, seed), spans tagged with the campaign id
   "<sut>/<seed>". *)
let run_unit t ~sut ~seed =
  let cid = Printf.sprintf "%s/%d" sut seed in
  let journal = Filename.concat t.dir (Printf.sprintf "%s-%d.jsonl" sut seed) in
  let s =
    match Suts.Catalog.find sut with Some s -> s | None -> failwith ("unknown SUT " ^ sut)
  in
  (* each unit starts from the same small heap, as a fresh process would;
     the garbage of an apache unit made the next units' stages a third
     slower than the CLI's *)
  Gc.compact ();
  Spans.with_span t.spans ~cid "unit" (fun () ->
      let base, scenarios = campaign_stage t ~cid s ~seed ~journal in
      layers_stage t ~cid ~order:(t.units mod 2 = 0) s ~seed ~base ~scenarios ~journal;
      replay_stage t ~cid s ~seed ~journal;
      serve_stage t ~cid ~sut ~seed);
  t.units <- t.units + 1

(* Units in [inputs] order (cycled) until [until_ns]; at least one. *)
let run t ~inputs ~until_ns =
  let inputs = Array.of_list inputs in
  let rec go k =
    let sut, seed = inputs.(k mod Array.length inputs) in
    run_unit t ~sut ~seed;
    if Proc.now_ns () < until_ns then go (k + 1)
  in
  go 0
