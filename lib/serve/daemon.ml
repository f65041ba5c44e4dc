module Json = Conferr_obsv.Json
module Metrics = Conferr_obsv.Metrics
module Executor = Conferr_exec.Executor
module Progress = Conferr_exec.Progress
module Journal = Conferr_exec.Journal
module Policy = Conferr_harden.Policy

type status =
  | Queued
  | Running
  | Done
  | Interrupted
  | Cancelled
  | Failed of string

(* What [/results] prints of one profile entry. *)
type row = { scenario_id : string; class_name : string; outcome : string }

(* The faultload is not kept: [run_campaign] gets it as arguments, so it
   dies when the executor returns.  A closed campaign keeps these fields,
   its events and its result rows. *)
type campaign = {
  cid : string;
  sut : Suts.Sut.t;
  seed : int;
  policy : Policy.t;
  cancel : bool Atomic.t;  (* the executor's: set by a cancel or a drain *)
  journal_path : string;
  total : int;
  lock : Mutex.t;  (* the daemon's: the mutable fields change under it *)
  mutable cstatus : status;
  mutable done_count : int;  (* finished + resumed scenarios *)
  mutable cancel_requested : bool;
  mutable rows : row array option;  (* set with the terminal status *)
  (* events are kept as values and rendered when a reader asks *)
  mutable events_rev : Progress.event list;  (* newest first *)
  mutable events_n : int;
  mutable terminal : string option;  (* the terminal line, once closed *)
}

type t = {
  lock : Mutex.t;
  changed : Condition.t;  (* any event append or status change *)
  closed : Condition.t;  (* a campaign's terminal event *)
  mutable free_helpers : int;  (* of the [jobs - 1] helper domains *)
  reg : Metrics.t;
  state_dir : string;
  max_campaigns : int;
  segment_bytes : int option;
  journal_io : string -> Conferr_harden.Diskchaos.io option;
  mutable disk_faults : int;  (* campaigns failed by a journal fault *)
  by_id : (string, campaign) Hashtbl.t;
  mutable order : campaign list;  (* newest first *)
  mutable active : int;  (* slots held: admitted, not yet terminal *)
  mutable next_id : int;
  mutable draining : bool;
  mutable threads : (campaign * Thread.t) list;  (* not joined yet *)
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The id after the highest [cNNNN.jsonl] or [cNNNN.v3] journal already
   in [dir], so a restarted daemon never truncates an old campaign's
   journal. *)
let next_free_id dir =
  let number name =
    let stem = Filename.remove_extension name in
    match Filename.extension name with
    | (".jsonl" | ".v3") when String.length stem > 1 && stem.[0] = 'c' ->
      int_of_string_opt (String.sub stem 1 (String.length stem - 1))
    | _ -> None
  in
  Array.fold_left
    (fun next name ->
      match number name with Some k when k >= 0 -> max next (k + 1) | _ -> next)
    1
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ?(jobs = 1) ?(max_campaigns = 4) ?segment_bytes
    ?(journal_io = fun _ -> None) ~state_dir () =
  mkdir_p state_dir;
  let reg = Metrics.create () in
  Metrics.declare reg Metrics.Counter "conferr_serve_submissions_total"
    ~help:"Campaign submissions, by result (accepted/rejected/invalid)";
  Metrics.declare reg Metrics.Gauge "conferr_serve_active_campaigns"
    ~help:"Campaigns currently queued or running";
  Metrics.declare reg Metrics.Counter "conferr_serve_requests_total"
    ~help:"HTTP requests served, by route and status";
  Metrics.declare reg Metrics.Counter "conferr_journal_faults_total"
    ~help:"Campaigns aborted by a journal storage fault, by campaign";
  Metrics.declare reg Metrics.Gauge "conferr_serve_disk_faults"
    ~help:"Campaigns failed so far by a journal storage fault";
  {
    lock = Mutex.create ();
    changed = Condition.create ();
    closed = Condition.create ();
    free_helpers =
      (match Executor.clamp_jobs jobs with Ok (jobs, _) -> jobs - 1 | Error _ -> 0);
    reg;
    state_dir;
    max_campaigns;
    segment_bytes;
    journal_io;
    disk_faults = 0;
    by_id = Hashtbl.create 64;
    order = [];
    active = 0;
    next_id = next_free_id state_dir;
    draining = false;
    threads = [];
  }

let status_of = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Interrupted -> "interrupted"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

let status_label c = status_of c.cstatus

let terminal = function
  | Queued | Running -> false
  | Done | Interrupted | Cancelled | Failed _ -> true

let finished c = terminal c.cstatus

(* Caller holds the lock. *)
let push_event t c ev =
  c.events_rev <- ev :: c.events_rev;
  c.events_n <- c.events_n + 1;
  Condition.broadcast t.changed

(* Caller holds the lock. *)
let set_active_gauge t =
  Metrics.set t.reg "conferr_serve_active_campaigns" (float_of_int t.active)

let campaigns t = locked t (fun () -> List.rev t.order)
let find t id = locked t (fun () -> Hashtbl.find_opt t.by_id id)

(* ------------------------------------------------------------------ *)
(* Campaign execution                                                  *)
(* ------------------------------------------------------------------ *)

let settings_of t c ~jobs =
  {
    Executor.default_settings with
    jobs;
    campaign_seed = c.seed;
    journal_path = Some c.journal_path;
    segment_bytes = t.segment_bytes;
    journal_io = t.journal_io c.cid;
    timeout_s = c.policy.Policy.timeout_s;
    retries = c.policy.Policy.retries;
    quorum = c.policy.Policy.quorum;
    breaker = c.policy.Policy.breaker;
    fuel = c.policy.Policy.fuel;
    metrics = Some t.reg;
    cancel = Some c.cancel;
  }

let terminal_event c =
  Json.Obj
    ([
       ("event", Json.Str "campaign");
       ("id", Json.Str c.cid);
       ("status", Json.Str (status_of c.cstatus));
       ("finished", Json.Num (float_of_int c.done_count));
       ("total", Json.Num (float_of_int c.total));
     ]
    @
    match c.cstatus with
    | Failed msg -> [ ("error", Json.Str msg) ]
    | _ -> [])

let row_of (e : Conferr.Profile.entry) =
  { scenario_id = e.scenario_id; class_name = e.class_name;
    outcome = Conferr.Outcome.label e.outcome }

(* A campaign takes as many of the free helper domains as its [jobs]
   asks for and runs [Executor.run_from] on them; one that finds none
   free runs it on its own thread, on the main domain.  It gives them
   back when it closes. *)
let run_campaign t c ~base ~scenarios =
  let helpers =
    locked t (fun () ->
        c.cstatus <- Running;
        let k = min c.policy.Policy.jobs_cap t.free_helpers in
        t.free_helpers <- t.free_helpers - k;
        k)
  in
  let on_event ev =
    locked t (fun () ->
        (match ev with
         | Progress.Finished _ -> c.done_count <- c.done_count + 1
         | Progress.Resumed { count } -> c.done_count <- c.done_count + count
         | _ -> ());
        push_event t c ev)
  in
  let run () =
    Executor.run_from ~settings:(settings_of t c ~jobs:(max 1 helpers)) ~on_event
      ~sut:c.sut ~base ~scenarios ()
  in
  let result =
    match if helpers = 0 then run () else Domain.join (Domain.spawn run) with
    | profile, _snapshot ->
      Ok (Array.of_list (List.map row_of profile.Conferr.Profile.entries))
    | exception Journal.Fault msg ->
      (* The campaign's storage is failing, not the service: mark this
         campaign failed, count the fault, leave the others alone. *)
      Metrics.inc t.reg "conferr_journal_faults_total"
        ~labels:[ ("campaign", c.cid) ];
      Error (true, "journal fault: " ^ msg)
    | exception exn -> Error (false, Printexc.to_string exn)
  in
  locked t (fun () ->
      t.free_helpers <- t.free_helpers + helpers;
      (match result with
       | Ok rows ->
         c.rows <- Some rows;
         let complete = Array.length rows >= c.total in
         c.cstatus <-
           (if c.cancel_requested then Cancelled
            else if complete then Done
            else Interrupted)
       | Error (disk, msg) ->
         if disk then begin
           t.disk_faults <- t.disk_faults + 1;
           Metrics.set t.reg "conferr_serve_disk_faults"
             (float_of_int t.disk_faults)
         end;
         c.cstatus <- Failed msg);
      c.terminal <- Some (Json.to_string (terminal_event c));
      t.active <- t.active - 1;
      Condition.broadcast t.changed;
      Condition.broadcast t.closed;
      set_active_gauge t)

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

type submit_error = Bad_request of string | Busy | Unavailable

let int_member name ~default obj =
  match Json.member name obj with
  | None -> Ok default
  | Some v -> (
    match Json.num v with
    | Some f when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "%s must be an integer" name))

let submission_count t result =
  Metrics.inc t.reg "conferr_serve_submissions_total"
    ~labels:[ ("result", result) ]

let parse_submission body =
  let ( let* ) = Result.bind in
  let* sut =
    match Json.member "sut" body with
    | None -> Error "missing required member \"sut\""
    | Some sut_json -> (
      match Option.bind (Json.str sut_json) Suts.Catalog.find with
      | None ->
        Error
          (Printf.sprintf "unknown sut (known: %s)"
             (String.concat ", " Suts.Catalog.names))
      | Some sut -> Ok sut)
  in
  let* seed = int_member "seed" ~default:42 body in
  let* policy = Policy.of_json body in
  Ok (sut, seed, policy)

(* Admission comes before the faultload: a slot is taken here and given
   back if the faultload cannot be built, so a refused submission
   generates nothing. *)
let reserve t =
  locked t (fun () ->
      if t.draining then Error Unavailable
      else if t.active >= t.max_campaigns then Error Busy
      else begin
        t.active <- t.active + 1;
        Ok ()
      end)

let release t = locked t (fun () -> t.active <- t.active - 1)

let faultload sut seed =
  match Conferr.Engine.parse_default_config sut with
  | Error _ as e -> e
  | Ok base ->
    Ok
      ( base,
        Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
          ~faultload:Conferr.Campaign.paper_faultload sut base )

(* Register the campaign in its reserved slot and start its thread, unless
   the daemon began draining meanwhile.  The threads of campaigns that
   ended since are joined here. *)
let register t ~sut ~seed ~policy ~base ~scenarios =
  let registered, ended =
    locked t (fun () ->
        if t.draining then begin
          t.active <- t.active - 1;
          (Error Unavailable, [])
        end
        else begin
          let cid = Printf.sprintf "c%04d" t.next_id in
          t.next_id <- t.next_id + 1;
          let c =
            {
              cid;
              sut;
              seed;
              policy;
              cancel = Atomic.make false;
              journal_path =
                Filename.concat t.state_dir
                  (cid ^ if t.segment_bytes = None then ".jsonl" else ".v3");
              total = List.length scenarios;
              lock = t.lock;
              cstatus = Queued;
              done_count = 0;
              cancel_requested = false;
              rows = None;
              events_rev = [];
              events_n = 0;
              terminal = None;
            }
          in
          Hashtbl.replace t.by_id cid c;
          t.order <- c :: t.order;
          let ended, running =
            List.partition (fun (prev, _) -> prev.terminal <> None) t.threads
          in
          let thread = Thread.create (fun () -> run_campaign t c ~base ~scenarios) () in
          t.threads <- (c, thread) :: running;
          set_active_gauge t;
          (Ok c, ended)
        end)
  in
  List.iter (fun (_, thread) -> Thread.join thread) ended;
  registered

(* A submission object has members [sut] (required), [seed] (default
   42) and the {!Conferr_harden.Policy} fields.  A bad member is
   [Bad_request] first.  Then admission: a slot is taken, or the
   submission is refused ([Unavailable] while draining, [Busy] at
   [max_campaigns]) before anything is generated, so a refusal costs no
   faultload.  Only then are the base configuration parsed and the
   scenario list generated; the slot is given back if that fails, and a
   drain begun meanwhile still refuses.  The campaign starts on its own
   thread, which alone holds the faultload: it dies when the campaign's
   run returns. *)
let submit t body =
  let reject kind e = submission_count t kind; Error e in
  match parse_submission body with
  | Error msg -> reject "invalid" (Bad_request msg)
  | Ok (sut, seed, policy) -> (
    match reserve t with
    | Error e -> reject "rejected" e
    | Ok () -> (
      match faultload sut seed with
      | exception exn -> release t; raise exn
      | Error msg -> release t; reject "invalid" (Bad_request msg)
      | Ok (base, scenarios) -> (
        match register t ~sut ~seed ~policy ~base ~scenarios with
        | Ok c -> submission_count t "accepted"; Ok c
        | Error e -> reject "rejected" e)))

(* The scenarios in flight finish, then the campaign closes with the ones
   that ran; the rest are the dropped ones ([total] minus the entries, 0
   once the campaign is terminal).  The wait has no bound of its own: a
   scenario that hangs holds it while it runs, for ever with no
   [timeout] in the policy, and even with one on a campaign that runs on
   helper domains, whose domain is joined only once its abandoned
   watchdog threads return ({!Conferr_pool.with_timeout}). *)
let cancel t c =
  locked t (fun () ->
      if terminal c.cstatus then 0
      else begin
        c.cancel_requested <- true;
        Atomic.set c.cancel true;
        while c.terminal = None do
          Condition.wait t.closed t.lock
        done;
        c.total - c.done_count
      end)

let wait t c =
  locked t (fun () ->
      while c.terminal = None do
        Condition.wait t.closed t.lock
      done)

let drain t =
  let threads =
    locked t (fun () ->
        t.draining <- true;
        List.iter (fun (c, _) -> Atomic.set c.cancel true) t.threads;
        let ts = t.threads in
        t.threads <- [];
        ts)
  in
  List.iter (fun (_, thread) -> Thread.join thread) threads

(* ------------------------------------------------------------------ *)
(* JSON views                                                          *)
(* ------------------------------------------------------------------ *)

(* Each read takes the fields that change in one critical section, so a
   terminal status comes with its terminal event counted. *)
let summary_json (c : campaign) =
  let status, finished, events =
    Mutex.protect c.lock (fun () ->
        (c.cstatus, c.done_count, c.events_n + Bool.to_int (c.terminal <> None)))
  in
  Json.Obj
    [
      ("id", Json.Str c.cid);
      ("sut", Json.Str c.sut.Suts.Sut.sut_name);
      ("seed", Json.Num (float_of_int c.seed));
      ("status", Json.Str (status_of status));
      ("total", Json.Num (float_of_int c.total));
      ("finished", Json.Num (float_of_int finished));
      ("events", Json.Num (float_of_int events));
      ("policy", Policy.to_json c.policy);
      ("journal", Json.Str c.journal_path);
    ]

(* The results of a closed campaign, from its rows: not from its
   journal, which a write that reported success without landing (a torn
   write) can leave a line short. *)
let results_json c status rows =
  let tally =
    Array.fold_left
      (fun acc r ->
        let n = Option.value ~default:0 (List.assoc_opt r.outcome acc) in
        (r.outcome, n + 1) :: List.remove_assoc r.outcome acc)
      [] rows
    |> List.sort compare
  in
  Json.Obj
    [
      ("id", Json.Str c.cid);
      ("sut", Json.Str c.sut.Suts.Sut.sut_name);
      ("status", Json.Str (status_of status));
      ("total", Json.Num (float_of_int c.total));
      ("entries", Json.Num (float_of_int (Array.length rows)));
      ( "outcomes",
        Json.Obj (List.map (fun (l, n) -> (l, Json.Num (float_of_int n))) tally)
      );
      ( "scenarios",
        Json.Arr
          (Array.fold_right
             (fun r rest ->
               Json.Obj
                 [
                   ("id", Json.Str r.scenario_id);
                   ("class", Json.Str r.class_name);
                   ("outcome", Json.Str r.outcome);
                 ]
               :: rest)
             rows []) );
    ]

(* Index [events_n] is the terminal line.  Only the events after [from]
   are walked, and they are rendered outside the lock. *)
let events_after t c from =
  (* the [k] newest of a newest-first list, oldest first *)
  let rec take k acc = function
    | ev :: rest when k > 0 -> take (k - 1) (ev :: acc) rest
    | _ -> acc
  in
  let fresh, terminal, closed =
    locked t (fun () ->
        ( take (c.events_n - from) [] c.events_rev,
          (if from <= c.events_n then Option.to_list c.terminal else []),
          c.terminal <> None ))
  in
  (List.map (fun ev -> Json.to_string (Progress.event_to_json ev)) fresh @ terminal, closed)

(* ------------------------------------------------------------------ *)
(* HTTP surface                                                        *)
(* ------------------------------------------------------------------ *)

let error_json ?(status = 400) ?(headers = []) msg =
  Http.response ~headers ~content_type:"application/json" status
    (Json.to_string (Json.Obj [ ("error", Json.Str msg) ]) ^ "\n")

let dashboard_html t =
  let paths = locked t (fun () -> List.rev_map (fun c -> c.journal_path) t.order) in
  let rows =
    List.concat_map
      (fun path ->
        if Sys.file_exists path then
          Conferr_exec.Dashboard.rows_of_entries (Journal.load path)
        else [])
      paths
  in
  Conferr_obsv.Report.html ~title:"conferr serve" ~rows
    ~metrics_text:(Metrics.expose t.reg) ()

let stream_events t c ~from write =
  let i = ref from in
  let continue = ref true in
  while !continue do
    let lines, closed = events_after t c !i in
    (match lines with
     | [] ->
       (* nothing new: either finished, or block for the next event *)
       if closed then continue := false
       else
         locked t (fun () ->
             if c.events_n <= !i && c.terminal = None then
               Condition.wait t.changed t.lock)
     | _ ->
       (* one chunk per wake: the socket has Nagle off, so each write is
          a segment of its own *)
       let buf = Buffer.create 4096 in
       List.iter (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n') lines;
       write (Buffer.contents buf);
       i := !i + List.length lines)
  done

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let query_int req name ~default =
  match List.assoc_opt name req.Http.query with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n when n >= 0 -> n | _ -> default)

let handle t (req : Http.request) =
  let count route status =
    Metrics.inc t.reg "conferr_serve_requests_total"
      ~labels:[ ("route", route); ("status", string_of_int status) ]
  in
  let respond route resp =
    count route resp.Http.status;
    `Response resp
  in
  let with_campaign route id k =
    match find t id with
    | None -> respond route (error_json ~status:404 "no such campaign")
    | Some c -> k c
  in
  match (req.meth, segments req.path) with
  | "GET", [ "healthz" ] -> respond "healthz" (Http.response 200 "ok\n")
  | "GET", [ "metrics" ] ->
    respond "metrics"
      (Http.response ~content_type:"text/plain; version=0.0.4" 200
         (Metrics.expose t.reg))
  | "GET", [ "dashboard" ] ->
    respond "dashboard"
      (Http.response ~content_type:"text/html; charset=utf-8" 200
         (dashboard_html t))
  | "POST", [ "campaigns" ] -> (
    match Json.of_string (if req.body = "" then "{}" else req.body) with
    | Error msg -> respond "submit" (error_json ("invalid JSON body: " ^ msg))
    | Ok body -> (
      match submit t body with
      | Ok c ->
        respond "submit" (Http.json_response ~status:202 (summary_json c))
      | Error (Bad_request msg) -> respond "submit" (error_json msg)
      | Error Busy ->
        respond "submit"
          (error_json ~status:429
             ~headers:[ ("retry-after", "1") ]
             "daemon at max concurrent campaigns")
      | Error Unavailable ->
        respond "submit" (error_json ~status:503 "daemon is draining")))
  | "GET", [ "campaigns" ] ->
    respond "list"
      (Http.json_response
         (Json.Obj
            [ ("campaigns", Json.Arr (List.map summary_json (campaigns t))) ]))
  | "GET", [ "campaigns"; id ] ->
    with_campaign "status" id (fun c ->
        respond "status" (Http.json_response (summary_json c)))
  | "POST", [ "campaigns"; id; "cancel" ] ->
    with_campaign "cancel" id (fun c ->
        let dropped = cancel t c in
        respond "cancel"
          (Http.json_response
             (Json.Obj
                [
                  ("id", Json.Str c.cid);
                  ("dropped", Json.Num (float_of_int dropped));
                  ("status", Json.Str (status_label c));
                ])))
  | "GET", [ "campaigns"; id; "events" ] ->
    with_campaign "events" id (fun c ->
        let from = query_int req "from" ~default:0 in
        count "events" 200;
        `Stream
          ( [ ("content-type", "application/jsonl") ],
            fun write -> stream_events t c ~from write ))
  | "GET", [ "campaigns"; id; "results" ] ->
    with_campaign "results" id (fun c ->
        match locked t (fun () -> Option.map (fun rows -> (c.cstatus, rows)) c.rows) with
        | Some (status, rows) ->
          respond "results" (Http.json_response (results_json c status rows))
        | None ->
          respond "results" (error_json ~status:409 "campaign not finished"))
  | "GET", [ "campaigns"; id; "journal" ] ->
    with_campaign "journal" id (fun c ->
        if Sys.file_exists c.journal_path then
          respond "journal" (Http.response 200 (Journal.read_text c.journal_path))
        else respond "journal" (error_json ~status:404 "no journal yet"))
  | _, ([ "healthz" ] | [ "metrics" ] | [ "dashboard" ] | [ "campaigns" ]
       | [ "campaigns"; _ ] | [ "campaigns"; _; ("cancel" | "events" | "results" | "journal") ]) ->
    respond "other" (error_json ~status:405 "method not allowed")
  | _ -> respond "other" (error_json ~status:404 "not found")

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)
(* ------------------------------------------------------------------ *)

let stop_requested = Atomic.make false

let listen t ~port ?port_file ?banner () =
  Atomic.set stop_requested false;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let on_signal _ = Atomic.set stop_requested true in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle on_signal)
      with Invalid_argument _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 64;
  let bound =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (match port_file with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     output_string oc (string_of_int bound ^ "\n");
     close_out oc);
  Option.iter (fun f -> f bound) banner;
  (* the connections still open, each with its thread, so the stop can
     end their input and join them; a connection removes itself and
     closes its socket in one critical section, so a socket number is
     never registered twice *)
  let open_conns = ref [] and conns_lock = Mutex.create () in
  (* accept with a short timeout so a signal is noticed promptly even
     when no connection ever arrives *)
  while not (Atomic.get stop_requested) do
    match Unix.select [ sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept sock with
      | fd, _ ->
        (* every reply goes out as soon as it is written: with Nagle's
           algorithm on, a reply written while the one before it is
           unacknowledged waits for the client's delayed ACK (40 ms) *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        let serve () =
          Fun.protect
            ~finally:(fun () ->
              Mutex.protect conns_lock (fun () ->
                  open_conns := List.filter (fun (f, _) -> f <> fd) !open_conns;
                  try Unix.close fd with Unix.Unix_error _ -> ()))
            (fun () -> Http.serve_connection (handle t) fd)
        in
        (* registered before it can remove itself: its removal waits for
           the lock held here *)
        Mutex.protect conns_lock (fun () ->
            open_conns := (fd, Thread.create serve ()) :: !open_conns)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  drain t;
  (* a connection parked in parse_request on an idle keep-alive socket
     would wait for its client forever: end its input, so it reads EOF
     (one mid-response still writes its answer), then join them all *)
  let still_open =
    Mutex.protect conns_lock (fun () ->
        List.iter
          (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
          !open_conns;
        !open_conns)
  in
  List.iter (fun (_, th) -> try Thread.join th with _ -> ()) still_open
