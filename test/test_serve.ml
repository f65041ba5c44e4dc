(* The serve subsystem (doc/serve.md): HTTP parser totality, the
   with_timeout watchdog leak fix, and the daemon's lifecycle —
   determinism vs the one-shot CLI path, campaigns taking turns on one
   domain, helper domains, backpressure, a cancel that drops work,
   drain, metrics and dashboard, and its outputs locked by digest. *)

module Http = Conferr_serve.Http
module Daemon = Conferr_serve.Daemon
module Executor = Conferr_exec.Executor
module Journal = Conferr_exec.Journal
module Progress = Conferr_exec.Progress
module Metrics = Conferr_obsv.Metrics
module Json = Conferr_obsv.Json
module Policy = Conferr_harden.Policy

(* -------------------------------------------------------------- *)
(* HTTP request parser: totality and edge cases                    *)
(* -------------------------------------------------------------- *)

let parse s = Http.parse_request (Http.reader_of_string s)

let check_error name expected_status s =
  match parse s with
  | `Error (status, _) ->
    Alcotest.(check int) (name ^ ": status") expected_status status
  | `Ok _ -> Alcotest.failf "%s: parsed as a valid request" name
  | `Eof -> Alcotest.failf "%s: parsed as clean EOF" name

let test_parse_simple () =
  match parse "GET /campaigns/c0001?from=3&x=a%20b HTTP/1.1\r\nHost: h\r\nX-One: 1\r\n\r\n" with
  | `Ok req ->
    Alcotest.(check string) "method" "GET" req.Http.meth;
    Alcotest.(check string) "path" "/campaigns/c0001" req.Http.path;
    Alcotest.(check (list (pair string string)))
      "query decoded" [ ("from", "3"); ("x", "a b") ] req.Http.query;
    Alcotest.(check (option string)) "headers lowercased" (Some "1")
      (Http.header req "x-one");
    Alcotest.(check string) "no body" "" req.Http.body;
    Alcotest.(check bool) "1.1 keeps alive" true (Http.keep_alive req)
  | _ -> Alcotest.fail "simple request did not parse"

let test_parse_body () =
  match parse "POST /campaigns HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" with
  | `Ok req -> Alcotest.(check string) "body" "hello" req.Http.body
  | _ -> Alcotest.fail "body request did not parse"

let test_parse_pipelined () =
  let r =
    Http.reader_of_string
      "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
  in
  (match Http.parse_request r with
   | `Ok req -> Alcotest.(check string) "first" "/a" req.Http.path
   | _ -> Alcotest.fail "first pipelined request");
  (match Http.parse_request r with
   | `Ok req ->
     Alcotest.(check string) "second" "/b" req.Http.path;
     Alcotest.(check string) "second body" "ok" req.Http.body
   | _ -> Alcotest.fail "second pipelined request");
  match Http.parse_request r with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected clean EOF after the pipeline"

let test_parse_malformed () =
  check_error "empty line soup" 400 "\r\n\r\n\r\n\r\n\r\n\r\n\r\n\r\n\r\nGET / HTTP/1.1\r\n\r\n";
  check_error "two-part request line" 400 "GET /\r\n\r\n";
  check_error "non-token method" 400 "GE T / HTTP/1.1 x\r\n\r\n";
  check_error "relative target" 400 "GET foo HTTP/1.1\r\n\r\n";
  check_error "bad version" 505 "GET / HTTP/2.0\r\n\r\n";
  check_error "truncated request line" 400 "GET / HT";
  check_error "truncated headers" 400 "GET / HTTP/1.1\r\nHost: h\r\n";
  check_error "colonless header" 400 "GET / HTTP/1.1\r\nno colon here\r\n\r\n";
  check_error "header name with space" 400 "GET / HTTP/1.1\r\nbad name: x\r\n\r\n";
  check_error "content-length junk" 400
    "POST / HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n";
  check_error "content-length negative" 400
    "POST / HTTP/1.1\r\nContent-Length: -4\r\n\r\n";
  check_error "conflicting content-lengths" 400
    "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nhi";
  check_error "truncated body" 400 "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nhi";
  check_error "chunked request" 501
    "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"

let test_parse_limits () =
  check_error "request line too long" 414
    (Printf.sprintf "GET /%s HTTP/1.1\r\n\r\n"
       (String.make (Http.max_line_bytes + 10) 'a'));
  check_error "header line too long" 431
    (Printf.sprintf "GET / HTTP/1.1\r\nx: %s\r\n\r\n"
       (String.make (Http.max_line_bytes + 10) 'b'));
  let many =
    String.concat ""
      (List.init (Http.max_headers + 2) (fun i -> Printf.sprintf "h%d: v\r\n" i))
  in
  check_error "too many headers" 431
    ("GET / HTTP/1.1\r\n" ^ many ^ "\r\n");
  check_error "body over the cap" 413
    (Printf.sprintf "POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
       (Http.max_body_bytes + 1));
  check_error "body absurdly large" 413
    "POST / HTTP/1.1\r\nContent-Length: 99999999999999\r\n\r\n"

(* Totality: whatever the bytes, the parser returns a constructor —
   and every `Error carries a 4xx/5xx status.  This is the property the
   connection handler's no-escaping-exception guarantee rests on. *)
let prop_parser_total =
  QCheck2.Test.make ~count:500 ~name:"http: parse_request is total on junk"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 200))
    (fun s ->
      match parse s with
      | `Ok _ | `Eof -> true
      | `Error (status, _) -> status >= 400 && status < 600)

(* Structured junk: a request-line-shaped prefix with random tails
   exercises the header/body paths more than uniform bytes do. *)
let prop_parser_total_structured =
  QCheck2.Test.make ~count:500
    ~name:"http: parse_request is total on request-shaped junk"
    QCheck2.Gen.(
      pair (string_size ~gen:printable (0 -- 80))
        (string_size ~gen:(char_range '\000' '\255') (0 -- 120)))
    (fun (head, tail) ->
      match parse ("GET /" ^ head ^ " HTTP/1.1\r\n" ^ tail) with
      | `Ok _ | `Eof -> true
      | `Error (status, _) -> status >= 400 && status < 600)

let prop_wellformed_roundtrip =
  QCheck2.Test.make ~count:300
    ~name:"http: well-formed requests parse back their parts"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range 'a' 'z') (1 -- 20))
        (string_size ~gen:(char_range 'a' 'z') (0 -- 200)))
    (fun (path, body) ->
      match
        parse
          (Printf.sprintf "POST /%s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
             path (String.length body) body)
      with
      | `Ok req -> req.Http.path = "/" ^ path && req.Http.body = body
      | _ -> false)

(* The connection loop itself must not raise either, even when the
   handler does: drive it over a socketpair and read the 500 back. *)
let test_serve_connection_handler_exn () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let handler _req = failwith "handler boom" in
  let t = Thread.create (fun () -> Http.serve_connection handler server) () in
  let oc = Unix.out_channel_of_descr client in
  output_string oc "GET / HTTP/1.1\r\n\r\n";
  flush oc;
  let r = Http.reader_of_fd client in
  (match Http.parse_response_head r with
   | Ok (status, _) -> Alcotest.(check int) "handler exn becomes 500" 500 status
   | Error msg -> Alcotest.failf "response head: %s" msg);
  Thread.join t;
  Unix.close client;
  Unix.close server

(* -------------------------------------------------------------- *)
(* with_timeout: the watchdog no longer leaks silently             *)
(* -------------------------------------------------------------- *)

let test_with_timeout_no_leak_on_success () =
  let before = Conferr_pool.abandoned_workers () in
  (match Conferr_pool.with_timeout ~timeout_s:5.0 (fun () -> 41 + 1) with
   | Some 42 -> ()
   | _ -> Alcotest.fail "with_timeout lost the result");
  Alcotest.(check int) "no abandoned workers on success" before
    (Conferr_pool.abandoned_workers ())

let test_with_timeout_abandoned_accounting () =
  let before = Conferr_pool.abandoned_workers () in
  let release = Atomic.make false in
  (match
     Conferr_pool.with_timeout ~timeout_s:0.05 (fun () ->
         while not (Atomic.get release) do
           Thread.yield ()
         done)
   with
   | None -> ()
   | Some () -> Alcotest.fail "expected a timeout");
  Alcotest.(check int) "overrunning worker counted as abandoned" (before + 1)
    (Conferr_pool.abandoned_workers ());
  (* once the stuck computation finishes, the worker un-counts itself *)
  Atomic.set release true;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    Conferr_pool.abandoned_workers () > before
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "abandoned count drains to zero" before
    (Conferr_pool.abandoned_workers ())

(* -------------------------------------------------------------- *)
(* Daemon lifecycle                                                *)
(* -------------------------------------------------------------- *)

let temp_dir () =
  let path = Filename.temp_file "conferr_serve_test" "" in
  Sys.remove path;
  path

let get path = { Http.meth = "GET"; target = path; path; query = []; version = "HTTP/1.1"; headers = []; body = "" }

let post path body =
  { (get path) with Http.meth = "POST"; body }

let response_of = function
  | `Response r -> r
  | `Stream _ -> Alcotest.fail "expected a plain response, got a stream"

let json_of (resp : Http.response) =
  match Json.of_string (String.trim resp.Http.resp_body) with
  | Ok j -> j
  | Error msg -> Alcotest.failf "response is not JSON: %s" msg

let str_member name json =
  match Option.bind (Json.member name json) Json.str with
  | Some s -> s
  | None -> Alcotest.failf "response has no string member %S" name

(* A campaign's id, as GET /campaigns/ID reports it. *)
let campaign_id c = str_member "id" (Daemon.summary_json c)

(* The daemon's metrics, as a GET /metrics scrape parses them. *)
let scrape daemon =
  match
    Metrics.parse_exposition
      (response_of (Daemon.handle daemon (get "/metrics"))).Http.resp_body
  with
  | Ok samples -> samples
  | Error msg -> Alcotest.failf "exposition does not parse: %s" msg

let submit ?(extra = []) ~sut daemon =
  let resp =
    response_of
      (Daemon.handle daemon
         (post "/campaigns"
            (Json.to_string
               (Json.Obj (("sut", Json.Str sut)
                          :: ("seed", Json.Num 7.) :: extra)))))
  in
  Alcotest.(check int) "submit accepted" 202 resp.Http.status;
  let id = str_member "id" (json_of resp) in
  match Daemon.find daemon id with
  | Some c -> c
  | None -> Alcotest.failf "campaign %s not registered" id

let submit_pg ?extra daemon = submit ?extra ~sut:"mini_pg" daemon

(* A seed-7 paper faultload, as the daemon generates it. *)
let faultload sut =
  let base =
    match Conferr.Engine.parse_default_config sut with
    | Ok base -> base
    | Error msg -> Alcotest.failf "%s default config: %s" sut.Suts.Sut.sut_name msg
  in
  ( base,
    Conferr.Campaign.typo_scenarios
      ~rng:(Conferr_util.Rng.create 7)
      ~faultload:Conferr.Campaign.paper_faultload sut base )

(* A seed-7 CLI-path run into [path]: the one-shot journal, or with
   [resume] the completion of a partial one. *)
let run_cli ?(resume = false) sut path =
  let base, scenarios = faultload sut in
  ignore
    (Executor.run_from
       ~settings:
         { Executor.default_settings with campaign_seed = 7;
           journal_path = Some path; resume }
       ~on_event:(fun _ -> ()) ~sut ~base ~scenarios ())

(* One-shot CLI-path journal for the same campaign, for determinism
   comparisons. *)
let oneshot_journal ?(sut = Suts.Mini_pg.sut) () =
  let path = Filename.temp_file "conferr_serve_oneshot" ".jsonl" in
  run_cli sut path;
  path

(* The determinism contract: wall-clock fields aside, the daemon's
   journal is the CLI journal. *)
let normalize_entries path =
  List.map
    (fun (e : Journal.entry) ->
      Json.to_string (Journal.entry_to_json { e with elapsed_ms = 0.; phase_ms = [] }))
    (Journal.load path)

let test_daemon_determinism () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c = submit_pg daemon in
  Daemon.wait daemon c;
  Alcotest.(check string) "campaign ran to completion" "done"
    (Daemon.status_label c);
  let summary = Daemon.summary_json c in
  let journal = str_member "journal" summary in
  let oneshot = oneshot_journal () in
  Alcotest.(check (list string))
    "daemon journal == one-shot journal modulo wall-clock"
    (normalize_entries oneshot) (normalize_entries journal);
  Daemon.drain daemon

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* A daemon restarted on the same state dir continues the id sequence:
   its first campaign must not reuse c0001 and truncate that journal. *)
let test_daemon_restart_keeps_journals () =
  let state_dir = temp_dir () in
  let first = Daemon.create ~jobs:1 ~state_dir () in
  let c1 = submit_pg first in
  Daemon.wait first c1;
  Daemon.drain first;
  Alcotest.(check string) "first daemon's id" "c0001" (campaign_id c1);
  let old_journal = Filename.concat state_dir "c0001.jsonl" in
  let before = read_file old_journal in
  let second = Daemon.create ~jobs:1 ~state_dir () in
  let c2 = submit_pg second in
  Daemon.wait second c2;
  Daemon.drain second;
  Alcotest.(check string) "restarted daemon continues the sequence" "c0002"
    (campaign_id c2);
  Alcotest.(check bool) "the old journal is untouched" true
    (before = read_file old_journal)

let test_daemon_concurrent_campaigns () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c1 = submit_pg daemon in
  let c2 = submit_pg daemon in
  Daemon.wait daemon c1;
  Daemon.wait daemon c2;
  Alcotest.(check string) "first completes" "done" (Daemon.status_label c1);
  Alcotest.(check string) "second completes" "done" (Daemon.status_label c2);
  let n1 = normalize_entries (str_member "journal" (Daemon.summary_json c1)) in
  let n2 = normalize_entries (str_member "journal" (Daemon.summary_json c2)) in
  Alcotest.(check (list string))
    "concurrent campaigns do not perturb each other's journals" n1 n2;
  Daemon.drain daemon

let test_daemon_backpressure_429 () =
  let daemon = Daemon.create ~jobs:1 ~max_campaigns:1 ~state_dir:(temp_dir ()) () in
  let c1 = submit_pg daemon in
  let resp =
    response_of
      (Daemon.handle daemon
         (post "/campaigns" {|{"sut":"mini_pg"}|}))
  in
  Alcotest.(check int) "second submission bounced" 429 resp.Http.status;
  Alcotest.(check (option string)) "advises when to retry" (Some "1")
    (List.assoc_opt "retry-after" resp.Http.resp_headers);
  Daemon.wait daemon c1;
  (* capacity freed: the same submission is accepted now *)
  let c2 = submit_pg daemon in
  Daemon.wait daemon c2;
  Daemon.drain daemon

let test_daemon_rejects_bad_submissions () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let status body =
    (response_of (Daemon.handle daemon (post "/campaigns" body))).Http.status
  in
  Alcotest.(check int) "unknown sut" 400 (status {|{"sut":"no-such"}|});
  Alcotest.(check int) "missing sut" 400 (status {|{"seed":1}|});
  Alcotest.(check int) "invalid policy" 400
    (status {|{"sut":"mini_pg","quorum":0}|});
  Alcotest.(check int) "non-integer seed" 400
    (status {|{"sut":"mini_pg","seed":1.5}|});
  Alcotest.(check int) "junk body" 400 (status "{nope");
  Daemon.drain daemon

let test_daemon_events_and_streaming () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c = submit_pg daemon in
  Daemon.wait daemon c;
  let lines, closed = Daemon.events_after daemon c 0 in
  Alcotest.(check bool) "stream closed after the terminal event" true closed;
  List.iter
    (fun line ->
      match Json.of_string line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "event line is not JSON (%s): %s" msg line)
    lines;
  (match List.rev lines with
   | last :: _ ->
     let json = Result.get_ok (Json.of_string last) in
     Alcotest.(check string) "terminal event" "campaign"
       (str_member "event" json);
     Alcotest.(check string) "terminal status" "done" (str_member "status" json)
   | [] -> Alcotest.fail "no events recorded");
  let tail, _ = Daemon.events_after daemon c (List.length lines - 1) in
  Alcotest.(check int) "from-index skips delivered events" 1 (List.length tail);
  (* the HTTP stream delivers exactly the buffered lines *)
  (match Daemon.handle daemon (get ("/campaigns/" ^ campaign_id c ^ "/events")) with
   | `Stream (_, produce) ->
     let buf = Buffer.create 4096 in
     produce (Buffer.add_string buf);
     Alcotest.(check int) "streamed line count" (List.length lines)
       (List.length
          (String.split_on_char '\n' (String.trim (Buffer.contents buf))))
   | `Response _ -> Alcotest.fail "events endpoint did not stream");
  Daemon.drain daemon

let num_member name json =
  match Option.bind (Json.member name json) Json.num with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "response has no number member %S" name

(* A cancel must drop work.  An apache campaign (785 scenarios) is
   cancelled right after its 202, on a one-domain daemon and on a
   two-domain one, where it runs on the helper: the reply says
   cancelled and counts what it dropped, the journal holds the rest,
   fsck-clean, and a CLI resume completes it into the one-shot journal.
   A daemon whose cancel only marks the status drops nothing and fails
   here. *)
let test_daemon_cancel () =
  let oneshot = normalize_entries (oneshot_journal ~sut:Suts.Mini_apache.sut ()) in
  List.iter
    (fun jobs ->
      let label what = Printf.sprintf "jobs %d: %s" jobs what in
      let daemon = Daemon.create ~jobs ~state_dir:(temp_dir ()) () in
      let c = submit ~sut:"mini_apache" daemon in
      let resp =
        response_of
          (Daemon.handle daemon
             (post ("/campaigns/" ^ campaign_id c ^ "/cancel") ""))
      in
      Alcotest.(check int) (label "cancel accepted") 200 resp.Http.status;
      let reply = json_of resp in
      Alcotest.(check string) (label "the reply says cancelled") "cancelled"
        (str_member "status" reply);
      let dropped = num_member "dropped" reply in
      Alcotest.(check bool) (label "cancel dropped scenarios") true (dropped > 0);
      let summary = Daemon.summary_json c in
      let journal = str_member "journal" summary in
      Alcotest.(check int) (label "dropped + journal entries = total")
        (num_member "total" summary)
        (dropped + List.length (Journal.load journal));
      Alcotest.(check bool) (label "journal fsck clean") true
        (Journal.clean (Journal.fsck journal));
      Daemon.drain daemon;
      run_cli ~resume:true Suts.Mini_apache.sut journal;
      Alcotest.(check (list string))
        (label "resumed journal == one-shot journal modulo wall-clock") oneshot
        (normalize_entries journal))
    [ 1; 2 ]

(* Campaigns take turns on one domain: a pg campaign submitted right
   behind an apache one sees its first result while apache is still
   open.  The pg events are read before apache's status, so a pass is
   sound; campaigns run one after another fail it. *)
let test_daemon_campaigns_take_turns () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let apache = submit ~sut:"mini_apache" daemon in
  let pg = submit_pg daemon in
  let first_result () =
    List.exists
      (fun line -> str_member "event" (Result.get_ok (Json.of_string line)) = "finished")
      (fst (Daemon.events_after daemon pg 0))
  in
  while not (first_result () || Daemon.finished pg) do
    Thread.delay 0.0005
  done;
  let apache_open = not (Daemon.finished apache) in
  Daemon.wait daemon apache;
  Daemon.wait daemon pg;
  Daemon.drain daemon;
  Alcotest.(check bool) "pg's first result came while apache was open" true apache_open;
  Alcotest.(check (list string)) "both done" [ "done"; "done" ]
    (List.map Daemon.status_label [ apache; pg ])

(* The started and finished events of a closed campaign, as (kind,
   index) in the order they were emitted. *)
let run_order daemon c =
  List.filter_map
    (fun line ->
      let ev = Result.get_ok (Json.of_string line) in
      match str_member "event" ev with
      | ("started" | "finished") as kind -> Some (kind, num_member "index" ev)
      | _ -> None)
    (fst (Daemon.events_after daemon c 0))

(* Helper domains: a two-domain daemon has one helper.  Of two campaigns
   that each ask for two domains, the first to start takes the helper
   and runs there alone, the other finds none free and runs on the main
   domain: each runs on one domain, so its scenarios start and finish
   in index order, and both journals equal the one-shot journal.  A
   daemon that lets a campaign spawn what it asks for without counting
   the helpers runs each on two domains and fails here. *)
let test_daemon_helper_domains () =
  let daemon = Daemon.create ~jobs:2 ~state_dir:(temp_dir ()) () in
  let extra = [ ("jobs", Json.Num 2.) ] in
  let c1 = submit_pg ~extra daemon in
  let c2 = submit_pg ~extra daemon in
  Daemon.wait daemon c1;
  Daemon.wait daemon c2;
  Daemon.drain daemon;
  let oneshot = normalize_entries (oneshot_journal ()) in
  List.iter
    (fun c ->
      let id = campaign_id c in
      let summary = Daemon.summary_json c in
      Alcotest.(check string) (id ^ " done") "done" (Daemon.status_label c);
      Alcotest.(check (list (pair string int)))
        (id ^ " ran on one domain: scenarios in index order")
        (List.concat
           (List.init (num_member "total" summary) (fun i ->
                [ ("started", i); ("finished", i) ])))
        (run_order daemon c);
      Alcotest.(check (list string)) (id ^ " journal == one-shot journal") oneshot
        (normalize_entries (str_member "journal" summary)))
    [ c1; c2 ]

let test_daemon_metrics_and_dashboard () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c = submit_pg daemon in
  Daemon.wait daemon c;
  let metrics = response_of (Daemon.handle daemon (get "/metrics")) in
  Alcotest.(check int) "metrics 200" 200 metrics.Http.status;
  (match Metrics.parse_exposition metrics.Http.resp_body with
   | Ok samples ->
     Alcotest.(check bool) "exposition has samples" true (samples <> []);
     Alcotest.(check bool) "serve counters present" true
       (List.exists
          (fun (s : Metrics.sample) ->
            s.Metrics.sample_name = "conferr_serve_submissions_total")
          samples);
     Alcotest.(check bool) "executor families present" true
       (List.exists
          (fun (s : Metrics.sample) ->
            s.Metrics.sample_name = "conferr_scenario_outcomes_total")
          samples)
   | Error msg -> Alcotest.failf "exposition does not parse: %s" msg);
  let dash = response_of (Daemon.handle daemon (get "/dashboard")) in
  Alcotest.(check int) "dashboard 200" 200 dash.Http.status;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "dashboard is an HTML document" true
    (contains dash.Http.resp_body "<!doctype html");
  Alcotest.(check bool) "dashboard shows campaign rows" true
    (contains dash.Http.resp_body "typo/delete-directive");
  Daemon.drain daemon

let test_daemon_routes () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let status req = (response_of (Daemon.handle daemon req)).Http.status in
  Alcotest.(check int) "healthz" 200 (status (get "/healthz"));
  Alcotest.(check int) "unknown path" 404 (status (get "/nope"));
  Alcotest.(check int) "unknown campaign" 404 (status (get "/campaigns/zz"));
  Alcotest.(check int) "wrong method" 405 (status (post "/metrics" ""));
  let c = submit_pg daemon in
  Alcotest.(check int) "results before finish is a conflict" 409
    (status (get ("/campaigns/" ^ campaign_id c ^ "/results")));
  Daemon.wait daemon c;
  Daemon.drain daemon

let test_daemon_drain_interrupts () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c = submit_pg daemon in
  (* drain races the campaign: whichever wins, the campaign must end in
     a terminal state with an fsck-clean journal, and the daemon must
     refuse new submissions *)
  Daemon.drain daemon;
  Alcotest.(check bool) "campaign is terminal" true (Daemon.finished c);
  let journal = str_member "journal" (Daemon.summary_json c) in
  if Sys.file_exists journal then
    Alcotest.(check bool) "journal fsck clean" true
      (Journal.clean (Journal.fsck journal));
  let resp =
    response_of (Daemon.handle daemon (post "/campaigns" {|{"sut":"mini_pg"}|}))
  in
  Alcotest.(check int) "draining daemon answers 503" 503 resp.Http.status

(* -------------------------------------------------------------- *)
(* Odds and ends: --jobs grammar, policy codec, event JSON          *)
(* -------------------------------------------------------------- *)

let test_parse_jobs () =
  Alcotest.(check (result int string)) "plain number" (Ok 4)
    (Executor.parse_jobs "4");
  Alcotest.(check int) "auto resolves to the hardware default"
    (Conferr_pool.recommended_jobs ())
    (Result.get_ok (Executor.parse_jobs " AUTO "));
  Alcotest.(check bool) "junk is an error" true
    (Result.is_error (Executor.parse_jobs "banana"));
  Alcotest.(check bool) "empty is an error" true
    (Result.is_error (Executor.parse_jobs ""))

let test_policy_roundtrip () =
  let p =
    {
      Policy.jobs_cap = 3; quorum = 5; breaker = Some 4; timeout_s = Some 1.5;
      retries = 2; fuel = Some 100;
    }
  in
  Alcotest.(check bool) "of_json (to_json p) = p" true
    (Policy.of_json (Policy.to_json p) = Ok p);
  Alcotest.(check bool) "zero switches option knobs off" true
    (Policy.of_json (Json.Obj [ ("breaker", Json.Num 0.) ])
     = Result.map (fun p -> { p with Policy.breaker = None }) (Policy.of_json (Json.Obj [])));
  Alcotest.(check bool) "negative quorum rejected" true
    (Result.is_error (Policy.of_json (Json.Obj [ ("quorum", Json.Num (-1.)) ])))

let test_event_to_json () =
  let tag ev =
    str_member "event" (Progress.event_to_json ev)
  in
  Alcotest.(check string) "started" "started"
    (tag (Progress.Started { index = 0; id = "x" }));
  Alcotest.(check string) "finished" "finished"
    (tag (Progress.Finished { index = 0; id = "x"; label = "ok"; elapsed_ms = 1. }));
  Alcotest.(check string) "timeout" "timeout"
    (tag (Progress.Timed_out { index = 0; id = "x"; attempt = 1 }));
  Alcotest.(check string) "breaker" "breaker-tripped"
    (tag (Progress.Breaker_tripped { bucket = "b" }))

let within seconds cond =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  cond ()

(* [Daemon.listen] on port 0, on a thread of its own: the bound port;
   a stop that sends SIGTERM and tells whether listen returned within
   5 s; and a join that waits for it and restores the signal handlers. *)
let start_listener daemon =
  let saved = List.map (fun s -> (s, Sys.signal s Sys.Signal_default)) [ Sys.sigterm; Sys.sigint ] in
  let port = Atomic.make 0 and returned = Atomic.make false in
  let listener =
    Thread.create
      (fun () ->
        Daemon.listen daemon ~port:0 ~banner:(Atomic.set port) ();
        Atomic.set returned true)
      ()
  in
  (* the banner comes after listen installed its signal handlers *)
  Alcotest.(check bool) "listening" true (within 5. (fun () -> Atomic.get port > 0));
  let stop () =
    Unix.kill (Unix.getpid ()) Sys.sigterm;
    within 5. (fun () -> Atomic.get returned)
  and join () =
    Thread.join listener;
    List.iter (fun (s, b) -> Sys.set_signal s b) saved
  in
  (Atomic.get port, stop, join)

let connect port =
  let client = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect client (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  client

(* SIGTERM while a client holds an idle keep-alive connection: listen
   drains and returns without waiting for the client to hang up. *)
let test_daemon_sigterm_idle_keepalive () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let port, stop, join = start_listener daemon in
  let client = connect port in
  let request = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n" in
  ignore (Unix.write_substring client request 0 (String.length request));
  let buf = Bytes.create 512 and got = Buffer.create 512 in
  let answered () =
    let b = Buffer.contents got in
    String.length b >= 3 && String.sub b (String.length b - 3) 3 = "ok\n"
  in
  while not (answered ()) do
    let n = Unix.read client buf 0 (Bytes.length buf) in
    if n = 0 then Alcotest.fail "connection closed before the answer";
    Buffer.add_subbytes got buf 0 n
  done;
  let stopped = stop () in
  Unix.close client;
  join ();
  Alcotest.(check bool) "listen returned while the client held its connection" true
    stopped


(* -------------------------------------------------------------- *)
(* The daemon's outputs, locked byte for byte                      *)
(* -------------------------------------------------------------- *)

(* [line] with the value after each ["k":], for [k] in [keys],
   replaced by [_]: a number, or a quoted string. *)
let mask_values keys line =
  let n = String.length line in
  let b = Buffer.create n in
  let key_at i =
    List.find_opt
      (fun k ->
        let p = Printf.sprintf "%S:" k in
        i + String.length p <= n && String.sub line i (String.length p) = p)
      keys
  in
  let rec skip_number j =
    if j < n && String.contains "0123456789.eE+-" line.[j] then skip_number (j + 1) else j
  in
  let rec go i =
    if i < n then
      match key_at i with
      | Some k ->
        let p = Printf.sprintf "%S:" k in
        Buffer.add_string b p;
        Buffer.add_char b '_';
        let j = i + String.length p in
        go
          (if j < n && line.[j] = '"' then String.index_from line (j + 1) '"' + 1
           else skip_number j)
      | None ->
        Buffer.add_char b line.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let md5 text = Digest.to_hex (Digest.string text)

(* The exposition with the wall-clock samples of the timing histograms
   masked: their [_bucket] and [_sum] values.  Every series, every
   counter and every [_count] line stays. *)
let mask_exposition text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let timing =
           List.exists
             (fun prefix -> String.starts_with ~prefix line)
             [ "conferr_scenario_ms_bucket"; "conferr_scenario_ms_sum";
               "conferr_phase_ms_bucket"; "conferr_phase_ms_sum" ]
         in
         if timing then String.sub line 0 (String.rindex line ' ') ^ " _" else line)
  |> String.concat "\n"

(* An in-process pg seed-7 campaign: its event stream ("ms" masked),
   the /metrics exposition (timing-histogram values masked) and its
   journal (crc, "ms" and phase durations masked), against digests
   recorded before events were kept as values and metrics went through
   handles; its /results and the /campaigns list once it closed (the
   journal path masked), against digests recorded while a closed
   campaign still kept its whole profile.  A byte that rendering events
   on read changes, a series that a handle adds or merges, or a result
   that the rows lose, shows here. *)
let test_daemon_outputs_locked () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c = submit_pg daemon in
  Daemon.wait daemon c;
  let events =
    match Daemon.handle daemon (get ("/campaigns/" ^ campaign_id c ^ "/events")) with
    | `Stream (_, produce) ->
      let buf = Buffer.create 4096 in
      produce (Buffer.add_string buf);
      Buffer.contents buf
    | `Response _ -> Alcotest.fail "events endpoint did not stream"
  in
  let metrics = (response_of (Daemon.handle daemon (get "/metrics"))).Http.resp_body in
  let results =
    (response_of (Daemon.handle daemon (get ("/campaigns/" ^ campaign_id c ^ "/results"))))
      .Http.resp_body
  in
  let listing = (response_of (Daemon.handle daemon (get "/campaigns"))).Http.resp_body in
  let journal = read_file (str_member "journal" (Daemon.summary_json c)) in
  let phases = List.map Conferr_obsv.Span.label Conferr_obsv.Span.all in
  let masked keys text =
    String.concat "\n" (List.map (mask_values keys) (String.split_on_char '\n' text))
  in
  Daemon.drain daemon;
  Alcotest.(check string) "events, ms masked" "08e3d6f7e2e9944c9a75f46ea76f1370" (md5 (masked [ "ms" ] events));
  Alcotest.(check string) "metrics, timing values masked" "d01d00059ff29921ed89303b9ef10ed1"
    (md5 (mask_exposition metrics));
  Alcotest.(check string) "journal, crc, ms and phases masked" "08217a2611427f9198f942a1684fffa9"
    (md5 (masked ("crc" :: "ms" :: phases) journal));
  Alcotest.(check string) "results" "a9478e1dc71c471660b13ea5b2dfa759" (md5 results);
  Alcotest.(check string) "campaign list, journal path masked" "a5ccaea56f165e9da9054c03a6b40df2"
    (md5 (mask_values [ "journal" ] listing))

(* A burst of the three db campaigns: the outcome counters of the
   shared registry are the sums over the three campaigns' results. *)
let test_daemon_burst_counters () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let campaigns =
    List.map
      (fun sut ->
        let resp =
          response_of
            (Daemon.handle daemon
               (post "/campaigns" (Printf.sprintf {|{"sut":%S,"seed":7}|} sut)))
        in
        Alcotest.(check int) (sut ^ " accepted") 202 resp.Http.status;
        Option.get (Daemon.find daemon (str_member "id" (json_of resp))))
      [ "mini_pg"; "mini_mysql"; "mini_appserver" ]
  in
  List.iter (Daemon.wait daemon) campaigns;
  let tally = Hashtbl.create 64 and by_outcome = Hashtbl.create 8 in
  let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)) in
  List.iter
    (fun c ->
      let results =
        json_of
          (response_of
             (Daemon.handle daemon (get ("/campaigns/" ^ campaign_id c ^ "/results"))))
      in
      let sut = str_member "sut" results in
      match Json.member "scenarios" results with
      | Some (Json.Arr scenarios) ->
        List.iter
          (fun s ->
            let outcome = str_member "outcome" s in
            bump tally [ ("class", str_member "class" s); ("outcome", outcome); ("sut", sut) ];
            bump by_outcome [ ("outcome", outcome) ])
          scenarios
      | _ -> Alcotest.fail "results without scenarios")
    campaigns;
  let expected tbl =
    List.sort compare (Hashtbl.fold (fun k n acc -> (k, float_of_int n) :: acc) tbl [])
  in
  Daemon.drain daemon;
  let samples = scrape daemon in
  let family name =
    List.filter_map
      (fun (s : Metrics.sample) ->
        if s.sample_name = name then Some (s.labels, s.value) else None)
      samples
  in
  let cells = Alcotest.(list (pair (list (pair string string)) (float 0.))) in
  Alcotest.check cells "conferr_scenario_outcomes_total" (expected tally)
    (family "conferr_scenario_outcomes_total");
  Alcotest.check cells "conferr_scenarios_finished_total" (expected by_outcome)
    (family "conferr_scenarios_finished_total")

(* Status polls while a burst of the three db campaigns runs, from this
   thread as a connection thread polls: through the route, and through
   [summary_json] of a campaign already found, as a poll that lost the
   CPU after its lookup reads it.  Every snapshot reads its fields
   together.  Throughout, finished <= total; a terminal snapshot counts
   every event line the stream sends, the terminal one included; and a
   /results that answers carries a terminal status. *)
let test_daemon_status_snapshots () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let campaigns =
    List.map
      (fun sut ->
        let resp =
          response_of
            (Daemon.handle daemon
               (post "/campaigns" (Printf.sprintf {|{"sut":%S,"seed":7}|} sut)))
        in
        Alcotest.(check int) (sut ^ " accepted") 202 resp.Http.status;
        Option.get (Daemon.find daemon (str_member "id" (json_of resp))))
      [ "mini_pg"; "mini_mysql"; "mini_appserver" ]
  in
  let terminal = [ "done"; "interrupted"; "cancelled"; "failed" ] in
  let closed = Hashtbl.create 3 and polls = ref 0 in
  let check c snap =
    let id = campaign_id c in
    incr polls;
    if num_member "finished" snap > num_member "total" snap then
      Alcotest.failf "%s: finished %d > total %d" id (num_member "finished" snap)
        (num_member "total" snap);
    if List.mem (str_member "status" snap) terminal then begin
      let lines, _ = Daemon.events_after daemon c 0 in
      Alcotest.(check int) (id ^ ": events of a terminal snapshot") (List.length lines)
        (num_member "events" snap);
      Hashtbl.replace closed id ()
    end
  in
  while Hashtbl.length closed < List.length campaigns do
    (* the direct reads first: the routes' lookups take the daemon lock *)
    List.iter (fun c -> check c (Daemon.summary_json c)) campaigns;
    List.iter
      (fun c ->
        let path = "/campaigns/" ^ campaign_id c in
        check c (json_of (response_of (Daemon.handle daemon (get path))));
        let results = response_of (Daemon.handle daemon (get (path ^ "/results"))) in
        if results.Http.status = 200 then
          Alcotest.(check bool) (path ^ ": results carry a terminal status") true
            (List.mem (str_member "status" (json_of results)) terminal))
      campaigns;
    Thread.yield ()
  done;
  Daemon.drain daemon;
  Alcotest.(check bool) "polled while the burst ran" true
    (!polls > 2 * List.length campaigns)

(* Replies over a socket go out as soon as they are written.  On a
   keep-alive connection warmed by 10 round trips, two and then three
   pipelined GET /healthz: with Nagle's algorithm on, a reply written
   while the one before it is unacknowledged waits for the client's
   delayed ACK, so each group took about 42 ms and a round about 84.
   The client's own socket has Nagle off, so only the daemon's side can
   stall.  Then a closed pg campaign's /events: every line it has in
   one chunk (one chunk per line sent 337), the lines [events_after]
   returns. *)
let test_daemon_socket_replies_at_once () =
  let daemon = Daemon.create ~jobs:1 ~state_dir:(temp_dir ()) () in
  let c = submit_pg daemon in
  Daemon.wait daemon c;
  let port, stop, join = start_listener daemon in
  let client = connect port in
  Unix.setsockopt client Unix.TCP_NODELAY true;
  let r = Http.reader_of_fd client in
  let healthz = "GET /healthz HTTP/1.1\r\nhost: conferr\r\n\r\n" in
  let exchange n =
    Http.write_all client (String.concat "" (List.init n (fun _ -> healthz)));
    for _ = 1 to n do
      match Http.parse_response_head r with
      | Error msg -> Alcotest.failf "healthz: %s" msg
      | Ok (status, headers) ->
        Alcotest.(check int) "healthz status" 200 status;
        ignore (Result.get_ok (Http.read_body r ~headers ~on_chunk:ignore))
    done
  in
  let round () =
    for _ = 1 to 10 do exchange 1 done;
    let t0 = Unix.gettimeofday () in
    exchange 2;
    exchange 3;
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  let fastest = List.fold_left Float.min infinity (List.init 5 (fun _ -> round ())) in
  Unix.close client;
  let stream = connect port in
  Http.write_all stream
    (Printf.sprintf "GET /campaigns/%s/events HTTP/1.1\r\nhost: conferr\r\n\r\n"
       (campaign_id c));
  let r = Http.reader_of_fd stream in
  let chunks = ref [] in
  (match Http.parse_response_head r with
   | Error msg -> Alcotest.failf "events: %s" msg
   | Ok (_, headers) -> (
     match Http.read_body r ~headers ~on_chunk:(fun data -> chunks := data :: !chunks) with
     | Ok () -> ()
     | Error msg -> Alcotest.failf "events body: %s" msg));
  Unix.close stream;
  let stopped = stop () in
  join ();
  let lines, _ = Daemon.events_after daemon c 0 in
  Alcotest.(check bool) "listen returned" true stopped;
  if fastest >= 20. then
    Alcotest.failf "two and three pipelined requests took %.1f ms at best" fastest;
  Alcotest.(check int) "chunks of a closed campaign's stream" 1 (List.length !chunks);
  Alcotest.(check string) "the stream is the lines of events_after"
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))
    (String.concat "" (List.rev !chunks))

let suite =
  [
    Alcotest.test_case "http: simple request" `Quick test_parse_simple;
    Alcotest.test_case "http: body by content-length" `Quick test_parse_body;
    Alcotest.test_case "http: pipelined requests" `Quick test_parse_pipelined;
    Alcotest.test_case "http: malformed inputs yield 4xx/5xx" `Quick
      test_parse_malformed;
    Alcotest.test_case "http: limits enforced" `Quick test_parse_limits;
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_parser_total_structured;
    QCheck_alcotest.to_alcotest prop_wellformed_roundtrip;
    Alcotest.test_case "http: handler exception becomes 500" `Quick
      test_serve_connection_handler_exn;
    Alcotest.test_case "with_timeout: success joins its worker" `Quick
      test_with_timeout_no_leak_on_success;
    Alcotest.test_case "with_timeout: abandoned workers are accounted" `Quick
      test_with_timeout_abandoned_accounting;
    Alcotest.test_case "daemon: journal identical to one-shot CLI" `Slow
      test_daemon_determinism;
    Alcotest.test_case "daemon: concurrent campaigns share the pool" `Slow
      test_daemon_concurrent_campaigns;
    Alcotest.test_case "daemon: invalid submissions answer 400" `Quick
      test_daemon_rejects_bad_submissions;
    Alcotest.test_case "daemon: event buffer and chunked stream" `Slow
      test_daemon_events_and_streaming;
    Alcotest.test_case "daemon: cancel keeps a clean partial journal" `Quick
      test_daemon_cancel;
    Alcotest.test_case "daemon: 429 with Retry-After when full" `Quick
      test_daemon_backpressure_429;
    Alcotest.test_case "daemon: campaigns take turns on one domain" `Quick
      test_daemon_campaigns_take_turns;
    Alcotest.test_case "daemon: campaigns share the helper domains" `Quick
      test_daemon_helper_domains;
    Alcotest.test_case "daemon: live /metrics and /dashboard" `Slow
      test_daemon_metrics_and_dashboard;
    Alcotest.test_case "daemon: routing table" `Quick test_daemon_routes;
    Alcotest.test_case "daemon: drain leaves terminal campaigns" `Quick
      test_daemon_drain_interrupts;
    Alcotest.test_case "cli: --jobs grammar" `Quick test_parse_jobs;
    Alcotest.test_case "policy: json codec" `Quick test_policy_roundtrip;
    Alcotest.test_case "progress: event json tags" `Quick test_event_to_json;
    Alcotest.test_case "daemon: a restart never truncates a journal" `Quick
      test_daemon_restart_keeps_journals;
    Alcotest.test_case "daemon: outputs locked byte for byte" `Slow
      test_daemon_outputs_locked;
    Alcotest.test_case "daemon: burst counters sum the campaigns" `Slow
      test_daemon_burst_counters;
    Alcotest.test_case "daemon: SIGTERM with an idle keep-alive client" `Quick
      test_daemon_sigterm_idle_keepalive;
    Alcotest.test_case "daemon: status snapshots agree with the event stream" `Slow
      test_daemon_status_snapshots;
    Alcotest.test_case "daemon: socket replies go out at once" `Quick
      test_daemon_socket_replies_at_once;
  ]
