(* The v3 segmented journal and the Diskchaos storage-fault shim:
   crash consistency under torn/short/ENOSPC/dropped-fsync writes and
   kill -9 at every byte offset (ISSUE 8 acceptance criteria). *)

module Journal = Conferr_exec.Journal
module Segstore = Conferr_exec.Segstore
module Executor = Conferr_exec.Executor
module Progress = Conferr_exec.Progress
module Json = Conferr_obsv.Json
module Diskchaos = Conferr_harden.Diskchaos
module Daemon = Conferr_serve.Daemon
module Http = Conferr_serve.Http
module Metrics = Conferr_obsv.Metrics
module Outcome = Conferr.Outcome

let temp_dir_name () =
  let path = Filename.temp_file "conferr_v3_test" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let entry i =
  {
    Journal.scenario_id = Printf.sprintf "typo-%04d" i;
    class_name = "typo/name";
    description = "v3";
    seed = Int64.of_int (1000 + i);
    outcome =
      (if i mod 2 = 0 then Outcome.Passed
       else Outcome.Startup_failure "bad directive");
    elapsed_ms = 0.25;
    attempts = 1;
    votes = [];
    phase_ms = [];
  }

let entries n = List.init n entry

let ids es = List.map (fun (e : Journal.entry) -> e.Journal.scenario_id) es

let canonical es = List.map (fun e -> Json.to_string (Journal.entry_to_json e)) es

let write_store ?segment_bytes ?io path es =
  let w = Journal.open_append ~fresh:true ?segment_bytes ?io path in
  List.iter (Journal.append w) es;
  Journal.close w

let silent (_ : Progress.event) = ()

(* -------------------------------------------------------------- *)
(* (a) store round-trip with rotation                              *)
(* -------------------------------------------------------------- *)

let test_store_roundtrip () =
  let dir = temp_dir_name () in
  let es = entries 12 in
  write_store ~segment_bytes:256 dir es;
  Alcotest.(check bool) "path recognized as a store" true (Journal.survey dir).store;
  Alcotest.(check bool) "rotation produced several segments" true
    (List.length (Journal.survey dir).segments > 1);
  Alcotest.(check (list string)) "load returns every entry in order"
    (canonical es) (canonical (Journal.load dir));
  Alcotest.(check bool) "fresh store fscks clean" true
    (Journal.survey_clean (Journal.survey dir));
  let lines =
    String.split_on_char '\n' (String.trim (Journal.read_text dir))
  in
  Alcotest.(check int) "read_text concatenates every line" 12
    (List.length lines);
  rm_rf dir

(* -------------------------------------------------------------- *)
(* (b) v1 / v2 / v3 journals all load the same entries             *)
(* -------------------------------------------------------------- *)

let test_version_compat () =
  let es = entries 5 in
  (* v1: bare entry objects, no CRC wrapper *)
  let v1 = Filename.temp_file "conferr_v3_test" ".jsonl" in
  let oc = open_out v1 in
  List.iter
    (fun e ->
      output_string oc (Json.to_string (Journal.entry_to_json e));
      output_char oc '\n')
    es;
  close_out oc;
  (* v2: the single-file writer *)
  let v2 = Filename.temp_file "conferr_v3_test" ".jsonl" in
  write_store v2 es;
  (* v3: the segmented store *)
  let v3 = temp_dir_name () in
  write_store ~segment_bytes:128 v3 es;
  Alcotest.(check (list string)) "v1 loads" (canonical es)
    (canonical (Journal.load v1));
  Alcotest.(check (list string)) "v2 loads" (canonical es)
    (canonical (Journal.load v2));
  Alcotest.(check (list string)) "v3 loads" (canonical es)
    (canonical (Journal.load v3));
  Alcotest.(check bool) "a single file is not a store" false
    (Journal.survey v2).store;
  Sys.remove v1;
  Sys.remove v2;
  rm_rf v3

(* -------------------------------------------------------------- *)
(* (c) merged v3 journal is jobs- and layout-independent           *)
(* -------------------------------------------------------------- *)

let sut = Suts.Mini_pg.sut

let campaign_base () =
  match Conferr.Engine.parse_default_config sut with
  | Ok base -> base
  | Error msg -> Alcotest.failf "postgres default config: %s" msg

let campaign_scenarios ?(limit = max_int) base =
  Conferr.Campaign.typo_scenarios
    ~rng:(Conferr_util.Rng.create 7)
    ~faultload:Conferr.Campaign.paper_faultload sut base
  |> List.filteri (fun i _ -> i < limit)

(* wall-clock aside, the journal must be byte-identical *)
let normalized path =
  List.map
    (fun (e : Journal.entry) ->
      Json.to_string
        (Journal.entry_to_json { e with elapsed_ms = 0.; phase_ms = [] }))
    (Journal.load path)

let run_campaign ?journal_io ?segment_bytes ?(resume = false) ?(jobs = 1) path
    scenarios =
  let base = campaign_base () in
  Executor.run_from
    ~settings:
      {
        Executor.default_settings with
        jobs;
        journal_path = Some path;
        segment_bytes;
        journal_io;
        resume;
      }
    ~on_event:silent ~sut ~base ~scenarios ()

let test_jobs_identity () =
  let base = campaign_base () in
  let scenarios = campaign_scenarios base in
  let seq_store = temp_dir_name () in
  let par_store = temp_dir_name () in
  let par_file = Filename.temp_file "conferr_v3_test" ".jsonl" in
  ignore (run_campaign ~segment_bytes:512 ~jobs:1 seq_store scenarios);
  ignore (run_campaign ~segment_bytes:4096 ~jobs:4 par_store scenarios);
  ignore (run_campaign ~jobs:4 par_file scenarios);
  let seq = normalized seq_store in
  Alcotest.(check (list string))
    "jobs 1 and jobs 4 stores merge to the same journal (any segment size)"
    seq (normalized par_store);
  Alcotest.(check (list string))
    "the v3 merged journal equals the single-file v2 journal" seq
    (normalized par_file);
  rm_rf seq_store;
  rm_rf par_store;
  Sys.remove par_file

(* -------------------------------------------------------------- *)
(* (d) Diskchaos fault semantics, one kind at a time               *)
(* -------------------------------------------------------------- *)

let chaos_io ?(seed = 7) ?(rate = 1.0) ?kill_at faults =
  Diskchaos.wrap ~settings:{ Diskchaos.seed; rate; kill_at; faults }
    Diskchaos.real

let read_file path =
  if not (Sys.file_exists path) then ""
  else In_channel.with_open_bin path In_channel.input_all

let test_fault_semantics () =
  let payload = "hello configuration world\n" in
  (* ENOSPC: the write raises and nothing lands *)
  let path = Filename.temp_file "conferr_v3_test" ".dat" in
  let io, st = chaos_io [ Diskchaos.Enospc ] in
  let f = io.Diskchaos.open_file ~append:false path in
  (try
     f.Diskchaos.write payload;
     Alcotest.fail "ENOSPC write did not raise"
   with Sys_error _ -> ());
  f.Diskchaos.flush ();
  f.Diskchaos.close ();
  Alcotest.(check string) "enospc: nothing written" "" (read_file path);
  Alcotest.(check int) "enospc: counted" 1 (Diskchaos.injected st);
  (* short write: the write raises but a strict prefix landed *)
  let io, _ = chaos_io [ Diskchaos.Short_write ] in
  let f = io.Diskchaos.open_file ~append:false path in
  (try
     f.Diskchaos.write payload;
     Alcotest.fail "short write did not raise"
   with Sys_error _ -> ());
  f.Diskchaos.flush ();
  f.Diskchaos.close ();
  let got = read_file path in
  Alcotest.(check bool) "short write: strict prefix" true
    (String.length got < String.length payload
    && got = String.sub payload 0 (String.length got));
  (* torn write: reports success but a strict prefix landed *)
  let io, _ = chaos_io [ Diskchaos.Torn_write ] in
  let f = io.Diskchaos.open_file ~append:false path in
  f.Diskchaos.write payload;
  f.Diskchaos.flush ();
  f.Diskchaos.close ();
  let got = read_file path in
  Alcotest.(check bool) "torn write: strict prefix, silent" true
    (String.length got < String.length payload
    && got = String.sub payload 0 (String.length got));
  (* fsync drop: the write buffers, the next flush lies and discards *)
  let io, st = chaos_io ~rate:0.5 ~seed:3 [ Diskchaos.Fsync_drop ] in
  let f = io.Diskchaos.open_file ~append:false path in
  let wrote = ref 0 in
  for i = 0 to 9 do
    f.Diskchaos.write (Printf.sprintf "line-%d\n" i);
    f.Diskchaos.flush ();
    incr wrote
  done;
  f.Diskchaos.close ();
  let kept =
    List.length
      (List.filter
         (fun l -> l <> "")
         (String.split_on_char '\n' (read_file path)))
  in
  Alcotest.(check int) "fsync drop: every dropped flush loses its line"
    (!wrote - Diskchaos.injected st)
    kept;
  Alcotest.(check bool) "fsync drop: something was dropped" true
    (Diskchaos.injected st > 0);
  (* kill point: writes land exactly up to the offset, then everything
     raises *)
  let io, st = chaos_io ~rate:0.0 ~kill_at:5 [] in
  let f = io.Diskchaos.open_file ~append:false path in
  (try
     (* bytes buffer on write and hit the kill counter when flushed,
        like the page cache they model *)
     f.Diskchaos.write "0123456789";
     f.Diskchaos.flush ();
     Alcotest.fail "kill point did not fire"
   with Diskchaos.Killed k -> Alcotest.(check int) "kill offset" 5 k);
  Alcotest.(check string) "exactly the bytes before the kill point" "01234"
    (read_file path);
  Alcotest.(check bool) "stats record the kill" true (Diskchaos.killed st);
  Alcotest.(check int) "written_bytes stops at the kill point" 5
    (Diskchaos.written_bytes st);
  (try
     (io.Diskchaos.open_file ~append:true path).Diskchaos.write "x";
     Alcotest.fail "dead io accepted a write"
   with Diskchaos.Killed _ -> ());
  Sys.remove path;
  (* an inert wrap is a configuration error *)
  match Diskchaos.wrap ~settings:{ Diskchaos.seed = 1; rate = 0.5; kill_at = None; faults = [] } Diskchaos.real with
  | _ -> Alcotest.fail "inert wrap accepted"
  | exception Invalid_argument _ -> ()

(* -------------------------------------------------------------- *)
(* (e) crash point at every byte offset across a segment boundary  *)
(* -------------------------------------------------------------- *)

(* The locked property: kill the writer after exactly [off] bytes of
   storage traffic (segment lines and manifest updates alike); then
   - fsck --repair brings the store back to clean,
   - what survived is a prefix of the appended entries, of length
     [ok] or [ok + 1] ([ok] appends returned; the fatal one may or
     may not have become durable first), and
   - appending the non-durable remainder (what --resume does)
     reconstructs exactly the original sequence. *)
let check_kill_at es seg_bytes off =
  let dir = temp_dir_name () in
  let io, st = chaos_io ~rate:0.0 ~kill_at:off [] in
  let ok = ref 0 in
  (try
     let w = Journal.open_append ~fresh:true ~segment_bytes:seg_bytes ~io dir in
     List.iter
       (fun e ->
         Journal.append w e;
         incr ok)
       es;
     Journal.close w
   with Journal.Fault _ -> ());
  if Diskchaos.killed st then begin
    ignore (Journal.survey ~repair:true dir);
    if not (Journal.survey_clean (Journal.survey dir)) then
      Alcotest.failf "offset %d: store not clean after repair" off;
    let durable = Journal.load dir in
    let n = List.length durable in
    if n <> !ok && n <> !ok + 1 then
      Alcotest.failf "offset %d: %d appends returned but %d entries durable"
        off !ok n;
    let expect_prefix = List.filteri (fun i _ -> i < n) es in
    if canonical durable <> canonical expect_prefix then
      Alcotest.failf "offset %d: durable entries are not a prefix" off;
    let rest = List.filteri (fun i _ -> i >= n) es in
    let w = Journal.open_append dir in
    List.iter (Journal.append w) rest;
    Journal.close w;
    if canonical (Journal.load dir) <> canonical es then
      Alcotest.failf "offset %d: resume did not reconstruct the journal" off
  end;
  rm_rf dir

let test_kill_sweep () =
  let es = entries 5 in
  let seg_bytes = 128 in
  (* measure the fault-free byte range so the sweep covers the whole
     write sequence, manifest updates included *)
  let dir = temp_dir_name () in
  let io, st = chaos_io ~rate:0.0 ~kill_at:max_int [] in
  write_store ~segment_bytes:seg_bytes ~io dir es;
  Alcotest.(check bool) "sweep range crosses a segment boundary" true
    (List.length (Journal.survey dir).segments > 1);
  let total = Diskchaos.written_bytes st in
  rm_rf dir;
  for off = 0 to total do
    check_kill_at es seg_bytes off
  done

let prop_kill_anywhere =
  QCheck2.Test.make ~count:40
    ~name:"journal v3: any kill offset repairs clean and resumes exactly"
    QCheck2.Gen.(
      triple (int_range 1 10) (int_range 64 512) (float_range 0.0 1.0))
    (fun (n, seg_bytes, frac) ->
      let es = entries n in
      let dir = temp_dir_name () in
      let io, st = chaos_io ~rate:0.0 ~kill_at:max_int [] in
      write_store ~segment_bytes:seg_bytes ~io dir es;
      let total = Diskchaos.written_bytes st in
      rm_rf dir;
      let off = int_of_float (frac *. float_of_int total) in
      check_kill_at es seg_bytes off;
      true)

(* -------------------------------------------------------------- *)
(* (f) a seeded fault campaign stays durable, for every fault kind *)
(* -------------------------------------------------------------- *)

let test_campaign_durability () =
  let base = campaign_base () in
  let scenarios = campaign_scenarios ~limit:60 base in
  let total = List.length scenarios in
  List.iter
    (fun fault ->
      let label = Diskchaos.fault_label fault in
      let dir = temp_dir_name () in
      let io, _ = chaos_io ~seed:99 ~rate:0.15 [ fault ] in
      (* the campaign must terminate: either it completes (silent
         faults) or the first raising fault aborts it as Journal.Fault *)
      (try ignore (run_campaign ~journal_io:io ~segment_bytes:2048 ~jobs:4 dir scenarios)
       with Journal.Fault _ -> ());
      ignore (Journal.survey ~repair:true dir);
      Alcotest.(check bool) (label ^ ": fsck --repair leaves a clean store")
        true
        (Journal.survey_clean (Journal.survey dir));
      let durable = ids (Journal.load dir) in
      Alcotest.(check int) (label ^ ": no scenario journaled twice")
        (List.length durable)
        (List.length (List.sort_uniq compare durable));
      (* chaos off: --resume re-executes exactly the non-durable rest *)
      let _, snap = run_campaign ~resume:true ~jobs:4 dir scenarios in
      Alcotest.(check int) (label ^ ": resume re-executes zero durable scenarios")
        (total - List.length durable)
        snap.Progress.finished;
      let final = ids (Journal.load dir) in
      Alcotest.(check (list string))
        (label ^ ": every scenario journaled exactly once")
        (List.sort compare (List.map (fun (s : Errgen.Scenario.t) -> s.id) scenarios))
        (List.sort compare final);
      rm_rf dir)
    Diskchaos.all_faults

(* The same contract for the single-file v2 writer at jobs 1, whose
   close leaves the appended file as it is instead of rewriting it. *)
let test_campaign_durability_v2 () =
  let base = campaign_base () in
  let scenarios = campaign_scenarios ~limit:60 base in
  let total = List.length scenarios in
  List.iter
    (fun fault ->
      let label = "v2 " ^ Diskchaos.fault_label fault in
      let path = Filename.temp_file "conferr_v2_test" ".jsonl" in
      let io, st = chaos_io ~seed:99 ~rate:0.15 [ fault ] in
      (try ignore (run_campaign ~journal_io:io ~jobs:1 path scenarios)
       with Journal.Fault _ -> ());
      Alcotest.(check bool) (label ^ ": faults were injected") true
        (Diskchaos.injected st > 0);
      let damaged = not (Journal.clean (Journal.fsck path)) in
      ignore (Journal.survey ~repair:true path);
      Alcotest.(check bool) (label ^ ": fsck --repair leaves a clean journal")
        true
        (Journal.survey_clean (Journal.survey path));
      let durable = ids (Journal.load path) in
      if fault = Diskchaos.Torn_write then
        Alcotest.(check bool) (label ^ ": the torn lines stayed for fsck") true damaged;
      Alcotest.(check int) (label ^ ": no scenario journaled twice")
        (List.length durable)
        (List.length (List.sort_uniq compare durable));
      let _, snap = run_campaign ~resume:true ~jobs:1 path scenarios in
      Alcotest.(check int) (label ^ ": resume re-executes zero durable scenarios")
        (total - List.length durable)
        snap.Progress.finished;
      Alcotest.(check (list string))
        (label ^ ": every scenario journaled exactly once")
        (List.map (fun (s : Errgen.Scenario.t) -> s.id) scenarios)
        (ids (Journal.load path));
      Sys.remove path)
    Diskchaos.all_faults

(* The journal with its wall-clock field and CRC masked. *)
let masked_lines path =
  let crc_at = String.length {|{"v":2,"crc":"|} in
  let ms_key = {|,"ms":|} in
  let find s key =
    let n = String.length key in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = key then Some i
      else go (i + 1)
    in
    go 0
  in
  let after s i = String.sub s i (String.length s - i) in
  List.map
    (fun line ->
      let line = String.sub line 0 crc_at ^ "xxxxxxxx" ^ after line (crc_at + 8) in
      match find line ms_key with
      | None -> line
      | Some i ->
        let stop = String.index_from line (i + String.length ms_key) ',' in
        String.sub line 0 i ^ ms_key ^ "0" ^ after line stop)
    (List.filter (( <> ) "") (String.split_on_char '\n' (read_file path)))

(* At jobs 1 without resume the appended file already is the final
   journal: close renames nothing onto it.  Masked, it is the journal a
   jobs-2 run of the same campaign checkpoints. *)
let test_jobs1_close_keeps_file () =
  let base = campaign_base () in
  let scenarios = campaign_scenarios base in
  let path = Filename.temp_file "conferr_v2_test" ".jsonl" in
  let opened = ref None and renames = ref 0 in
  let io =
    {
      Diskchaos.real with
      open_file =
        (fun ~append p ->
          let f = Diskchaos.real.open_file ~append p in
          if p = path then opened := Some (Unix.stat p).Unix.st_ino;
          f);
      rename =
        (fun a b ->
          incr renames;
          Diskchaos.real.rename a b);
    }
  in
  ignore (run_campaign ~journal_io:io ~jobs:1 path scenarios);
  Alcotest.(check int) "no rename at close" 0 !renames;
  Alcotest.(check (option int)) "the closed journal is the file the writer opened"
    !opened (Some (Unix.stat path).Unix.st_ino);
  Alcotest.(check int) "one line per scenario" (List.length scenarios)
    (List.length (masked_lines path));
  let par = Filename.temp_file "conferr_v2_test" ".jsonl" in
  ignore (run_campaign ~jobs:2 par scenarios);
  Alcotest.(check (list string)) "masked, it equals the jobs-2 journal"
    (masked_lines par) (masked_lines path);
  Sys.remove path;
  Sys.remove par

(* -------------------------------------------------------------- *)
(* (g) serve: a faulting campaign degrades alone                   *)
(* -------------------------------------------------------------- *)

let post path body =
  {
    Http.meth = "POST";
    target = path;
    path;
    query = [];
    version = "HTTP/1.1";
    headers = [];
    body;
  }

let submit_pg daemon =
  let resp =
    match Daemon.handle daemon (post "/campaigns" {|{"sut":"mini_pg","seed":7}|}) with
    | `Response r -> r
    | `Stream _ -> Alcotest.fail "expected a plain response"
  in
  Alcotest.(check int) "submit accepted" 202 resp.Http.status;
  let id =
    match Json.of_string (String.trim resp.Http.resp_body) with
    | Ok j -> Option.get (Option.bind (Json.member "id" j) Json.str)
    | Error msg -> Alcotest.failf "submit response is not JSON: %s" msg
  in
  match Daemon.find daemon id with
  | Some c -> c
  | None -> Alcotest.failf "campaign %s not registered" id

let test_serve_fault_isolation () =
  let state = temp_dir_name () in
  let journal_io cid =
    if cid <> "c0001" then None
    else
      Some
        (fst
           (Diskchaos.wrap
              ~settings:
                {
                  Diskchaos.default_settings with
                  rate = 1.0;
                  faults = [ Diskchaos.Enospc ];
                }
              Diskchaos.real))
  in
  let daemon =
    Daemon.create ~jobs:1 ~segment_bytes:512 ~journal_io ~state_dir:state ()
  in
  let c1 = submit_pg daemon in
  let c2 = submit_pg daemon in
  Daemon.wait daemon c1;
  Daemon.wait daemon c2;
  Alcotest.(check string) "faulted campaign fails" "failed"
    (Daemon.status_label c1);
  Alcotest.(check string) "co-tenant campaign completes" "done"
    (Daemon.status_label c2);
  let events, closed = Daemon.events_after daemon c1 0 in
  Alcotest.(check bool) "faulted stream closed" true closed;
  Alcotest.(check bool) "terminal event carries the error" true
    (List.exists
       (fun line ->
         match Json.of_string line with
         | Ok j -> Json.member "error" j <> None
         | Error _ -> false)
       events);
  let exposed =
    (Test_serve.response_of (Daemon.handle daemon (Test_serve.get "/metrics")))
      .Conferr_serve.Http.resp_body
  in
  let contains needle =
    let nl = String.length needle and el = String.length exposed in
    let rec go i = i + nl <= el && (String.sub exposed i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "journal fault counter exposed" true
    (contains "conferr_journal_faults_total");
  Alcotest.(check bool) "disk fault gauge exposed" true
    (contains "conferr_serve_disk_faults 1");
  Daemon.drain daemon;
  rm_rf state

(* -------------------------------------------------------------- *)
(* (h) path validation and the fsck JSON report                    *)
(* -------------------------------------------------------------- *)

let test_validate_path () =
  let ok = Filename.temp_file "conferr_v3_test" ".jsonl" in
  Alcotest.(check bool) "plain writable file path is fine" true
    (Result.is_ok (Journal.validate_path ok));
  Alcotest.(check bool) "missing parent directory is an error" true
    (Result.is_error (Journal.validate_path "/nonexistent-dir/journal.jsonl"));
  let dir = temp_dir_name () in
  Unix.mkdir dir 0o755;
  Alcotest.(check bool) "a plain directory is not a single-file journal" true
    (Result.is_error (Journal.validate_path dir));
  Alcotest.(check bool) "an existing file cannot become a store" true
    (Result.is_error (Journal.validate_path ~segment_bytes:512 ok));
  let store = temp_dir_name () in
  write_store ~segment_bytes:256 store (entries 3);
  Alcotest.(check bool) "an existing store is fine with --segment-bytes" true
    (Result.is_ok (Journal.validate_path ~segment_bytes:512 store));
  Alcotest.(check bool) "an existing store is fine without it too" true
    (Result.is_ok (Journal.validate_path store));
  (* the library-level counterpart: opening an impossible path raises
     Fault, not a bare Sys_error *)
  (try
     ignore (Journal.open_append "/nonexistent-dir/journal.jsonl");
     Alcotest.fail "open_append on a missing parent did not raise"
   with Journal.Fault _ -> ());
  Sys.remove ok;
  Unix.rmdir dir;
  rm_rf store

let test_fsck_json () =
  let dir = temp_dir_name () in
  let es = entries 8 in
  write_store ~segment_bytes:256 dir es;
  (* bit rot: garbage appended to a sealed segment breaks both the line
     format and the manifest CRC *)
  let segments = (Journal.survey dir).segments in
  let seg =
    match segments with
    | first :: _ -> Filename.concat dir first.segment
    | [] -> Alcotest.fail "store has no segments"
  in
  let oc = open_out_gen [ Open_append ] 0o644 seg in
  output_string oc "{ not json";
  close_out oc;
  let damaged = Journal.survey dir in
  let member name j = Option.get (Json.member name j) in
  let j = Journal.survey_to_json damaged in
  Alcotest.(check bool) "damaged store reports clean:false" true
    (member "clean" j = Json.Bool false);
  Alcotest.(check bool) "totals count the torn line" true
    (member "torn" j = Json.Num 1.);
  (match member "segments" j with
   | Json.Arr segs ->
     Alcotest.(check int) "one object per segment" (List.length segments)
       (List.length segs);
     Alcotest.(check bool) "the damaged segment fails its CRC" true
       (List.exists (fun s -> member "crc_ok" s = Json.Bool false) segs)
   | _ -> Alcotest.fail "segments member is not an array");
  let healed = Journal.survey ~repair:true dir in
  let j = Journal.survey_to_json healed in
  Alcotest.(check bool) "repaired report says clean:true" true
    (member "clean" j = Json.Bool true);
  Alcotest.(check bool) "repaired flag set" true
    (member "repaired" j = Json.Bool true);
  Alcotest.(check (list string)) "every entry survived the repair"
    (canonical es) (canonical (Journal.load dir));
  rm_rf dir

let suite =
  [
    Alcotest.test_case "v3: store round-trip with rotation" `Quick
      test_store_roundtrip;
    Alcotest.test_case "v3: v1/v2/v3 journals all load" `Quick
      test_version_compat;
    Alcotest.test_case "v3: merged journal is jobs- and layout-independent"
      `Slow test_jobs_identity;
    Alcotest.test_case "diskchaos: per-fault semantics" `Quick
      test_fault_semantics;
    Alcotest.test_case "v3: kill at every byte offset repairs and resumes"
      `Slow test_kill_sweep;
    QCheck_alcotest.to_alcotest prop_kill_anywhere;
    Alcotest.test_case "v3: seeded fault campaigns stay durable" `Slow
      test_campaign_durability;
    Alcotest.test_case "v2: seeded fault campaigns at jobs 1 stay durable" `Slow
      test_campaign_durability_v2;
    Alcotest.test_case "v2: jobs 1 closes without rewriting the journal" `Quick
      test_jobs1_close_keeps_file;
    Alcotest.test_case "serve: journal fault degrades one campaign" `Slow
      test_serve_fault_isolation;
    Alcotest.test_case "v3: journal path validation" `Quick test_validate_path;
    Alcotest.test_case "fsck: JSON report and repair" `Quick test_fsck_json;
  ]
