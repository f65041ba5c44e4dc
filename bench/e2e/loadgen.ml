(* The `conferr serve` load: daemon start and stop, and an open-loop
   client in one thread over two keep-alive connections.  Connection A
   pipelines each POST /campaigns at its due time; connection B polls
   GET /campaigns/ID for the campaigns still in flight.  Latencies count
   from the due time, so a stalled daemon delays every later campaign's
   clock too. *)

module Json = Conferr_obsv.Json

(* Polls go out at most one per [poll_gap_ns], to the campaign polled
   longest ago: every poll costs the daemon a request on its main domain,
   so the poll rate must not grow with the number of campaigns in flight
   or the observer would slow the observed.  With one campaign in flight
   its results are seen within a millisecond. *)
let poll_gap_ns = 1_000_000L

(* The host reference is timed only while the daemon is idle — nothing
   in flight and no submission due for [idle_ns] — so the daemon's work
   cannot slow it; at most once per [speed_gap_ns]. *)
let speed_gap_ns = 100_000_000L
let idle_ns = 10_000_000L

type campaign = {
  sut : string;
  seed : int;
  due_ns : int64;
  mutable sent_ns : int64;  (** 0 before *)
  mutable refused : bool;  (** answered 429 *)
  mutable ack_ns : int64;  (** the 202 *)
  mutable cid : string;
  mutable journal : string;
  mutable total : int;
  mutable first_ns : int64;  (** first finished scenario observed *)
  mutable done_ns : int64;  (** terminal status observed *)
  mutable status : string;  (** terminal status, or the client-side error *)
  mutable last_poll_ns : int64;
  mutable polling : bool;
  mutable factor : float;
      (** host slowdown ({!Speed.factor}) at the first reference run after
          it ended, or when it was sent if none followed *)
}

let campaign ~sut ~seed ~due_ns =
  {
    sut; seed; due_ns; sent_ns = 0L; refused = false; ack_ns = 0L; cid = "";
    journal = ""; total = 0; first_ns = 0L; done_ns = 0L; status = ""; last_poll_ns = 0L;
    polling = false; factor = 1.;
  }

(* ------------------------------------------------------------------ *)
(* HTTP/1.1 over non-blocking sockets                                  *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  outq : Buffer.t;  (* bytes not yet written *)
  inq : Buffer.t;  (* bytes read, not yet parsed *)
  waiting : int Queue.t;  (* campaign index of each outstanding request *)
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; outq = Buffer.create 4096; inq = Buffer.create 4096; waiting = Queue.create () }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let request ?body meth path =
  match body with
  | None -> Printf.sprintf "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\n\r\n" meth path
  | Some b ->
    Printf.sprintf
      "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-type: application/json\r\n\
       content-length: %d\r\n\r\n%s"
      meth path (String.length b) b

let send conn idx text =
  Buffer.add_string conn.outq text;
  Queue.push idx conn.waiting

let flush conn =
  let s = Buffer.contents conn.outq in
  let n =
    try Unix.single_write_substring conn.fd s 0 (String.length s)
    with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
  in
  Buffer.clear conn.outq;
  Buffer.add_substring conn.outq s n (String.length s - n)

let fill conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | n -> Buffer.add_subbytes conn.inq chunk 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let rec find_sub s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find_sub s sub (i + 1)

(* Pop one complete fixed-length response off [conn.inq]:
   (status, lowercased headers, body). *)
let next_response conn =
  let s = Buffer.contents conn.inq in
  match find_sub s "\r\n\r\n" 0 with
  | None -> None
  | Some head_end ->
    let lines = String.split_on_char '\n' (String.sub s 0 head_end) in
    let status =
      match String.split_on_char ' ' (List.hd lines) with
      | _ :: code :: _ -> int_of_string (String.trim code)
      | _ -> failwith "malformed status line"
    in
    let headers =
      List.filter_map
        (fun l ->
          Option.map
            (fun i ->
              ( String.lowercase_ascii (String.sub l 0 i),
                String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
            (String.index_opt l ':'))
        (List.tl lines)
    in
    let len =
      Option.fold ~none:0 ~some:int_of_string (List.assoc_opt "content-length" headers)
    in
    let body_start = head_end + 4 in
    let rest = String.length s - body_start - len in
    if rest < 0 then None
    else begin
      Buffer.clear conn.inq;
      Buffer.add_substring conn.inq s (body_start + len) rest;
      Some (status, headers, String.sub s body_start len)
    end

(* One blocking request; the replies to requests still outstanding on
   [conn] are read and dropped first. *)
let call conn text =
  send conn (-1) text;
  let deadline = Int64.add (Proc.now_ns ()) 30_000_000_000L in
  let rec loop () =
    flush conn;
    match next_response conn with
    | Some reply when Queue.pop conn.waiting = -1 -> reply
    | Some _ -> loop ()
    | None when Proc.now_ns () > deadline -> failwith "daemon did not answer"
    | None ->
      ignore (Unix.select [ conn.fd ] [] [] 1.0);
      fill conn;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int }

let read_port path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text when String.ends_with ~suffix:"\n" text -> int_of_string_opt (String.trim text)
  | _ -> None
  | exception Sys_error _ -> None

(* The daemon's OCaml runtime gets an 8 MB minor heap (1M words) per
   domain instead of the default 2 MB.  The daemon runs two domains, the
   main one and a worker, and every minor collection stops both; on a
   shared host each stop waits until the OS schedules the other domain,
   so with the default heap the latencies followed how busy the host was
   (README.md). *)
let runtime_params = ("OCAMLRUNPARAM", "s=1M")

(* Spawn `conferr serve` on an ephemeral port and return once GET
   /healthz answers 200, with the seconds that took.  Settings are the
   defaults but --max-campaigns: at the default 4, two heavy campaigns
   arriving close together already draw 429s (README.md). *)
let start ~conferr ~dir =
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ]
      0o644
  in
  let port_file = Filename.concat dir "port" in
  let t0 = Proc.now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log)
      (fun () ->
        Proc.spawn ~env:[ runtime_params ] ?cpu:(Lazy.force Proc.spare_cpu) conferr
          [
            "serve"; "--port"; "0"; "--port-file"; port_file; "--state-dir";
            Filename.concat dir "state"; "--max-campaigns"; "64";
          ]
          ~stdout:log ~stderr:log)
  in
  let deadline = Int64.add t0 30_000_000_000L in
  let rec wait_port () =
    match read_port port_file with
    | Some p -> p
    | None when Proc.now_ns () < deadline ->
      Unix.sleepf 0.0002;
      wait_port ()
    | None -> failwith "conferr serve did not write its port file"
  in
  let port = wait_port () in
  let conn = connect port in
  let status, _, _ =
    Fun.protect
      ~finally:(fun () -> close conn)
      (fun () -> call conn (request "GET" "/healthz"))
  in
  if status <> 200 then failwith (Printf.sprintf "GET /healthz answered %d" status);
  ({ pid; port }, Proc.ms_between t0 (Proc.now_ns ()) /. 1e3)

type stopped = { code : int; hwm_kib : int  (** peak RSS up to the signal *) }

(* SIGTERM: graceful drain. *)
let stop d =
  let hwm_kib = Proc.vm_hwm_kib d.pid in
  { code = Proc.terminate d.pid; hwm_kib }

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)
(* ------------------------------------------------------------------ *)

let terminal = function
  | "done" | "failed" | "interrupted" | "cancelled" -> true
  | _ -> false

let member_or name get default j =
  Option.value (Option.bind (Json.member name j) get) ~default

(* A refused submission (429, or 503 while draining) is a failed
   campaign, not retried. *)
let on_submit_reply (c : campaign) now (status, _, body) =
  match (status, Json.of_string body) with
  | 202, Ok j ->
    c.ack_ns <- now;
    c.cid <- member_or "id" Json.str "" j;
    c.journal <- member_or "journal" Json.str "" j;
    c.total <- int_of_float (member_or "total" Json.num 0. j)
  | code, _ ->
    c.refused <- code = 429;
    c.status <- Printf.sprintf "submission answered %d: %s" code (String.trim body);
    c.done_ns <- now

let on_poll_reply (c : campaign) now (status, _, body) =
  c.polling <- false;
  match (status, Json.of_string body) with
  | 200, Ok j ->
    if member_or "finished" Json.num 0. j >= 1. && c.first_ns = 0L then c.first_ns <- now;
    let st = member_or "status" Json.str "" j in
    if terminal st then begin
      c.status <- st;
      c.done_ns <- now;
      if c.first_ns = 0L then c.first_ns <- now
    end
  | code, _ ->
    c.status <- Printf.sprintf "status poll answered %d: %s" code body;
    c.done_ns <- now

let drain_s = 60.

(* Submit every campaign at its due time and follow it to a terminal
   status; gives up on campaigns still open [drain_s] after the last due
   time.  The daemon's /metrics exposition at the end, if it answered. *)
let run_open_loop d (camps : campaign array) ~speed =
  let a = connect d.port and b = connect d.port in
  Fun.protect
    ~finally:(fun () -> close a; close b)
    (fun () ->
      let n = Array.length camps in
      let next = ref 0 and last_poll = ref 0L and last_speed = ref 0L in
      let last_due = if n = 0 then Proc.now_ns () else camps.(n - 1).due_ns in
      let give_up = Int64.add last_due (Int64.of_float (drain_s *. 1e9)) in
      let submit i now =
        let c = camps.(i) in
        c.sent_ns <- now;
        c.factor <- Speed.factor speed;
        let body =
          Json.to_string
            (Json.Obj
               [ ("sut", Json.Str c.sut); ("seed", Json.Num (float_of_int c.seed)) ])
        in
        send a i (request ~body "POST" "/campaigns")
      in
      (* the in-flight campaign polled longest ago *)
      let stalest () =
        let pick = ref (-1) in
        Array.iteri
          (fun i c ->
            if c.ack_ns > 0L && c.done_ns = 0L && (not c.polling)
               && (!pick < 0 || c.last_poll_ns < camps.(!pick).last_poll_ns)
            then pick := i)
          camps;
        !pick
      in
      while Array.exists (fun c -> c.done_ns = 0L) camps && Proc.now_ns () < give_up do
        let now = Proc.now_ns () in
        if
          Array.for_all (fun c -> c.sent_ns = 0L || c.done_ns > 0L) camps
          && (!next >= n || Int64.sub camps.(!next).due_ns now > idle_ns)
          && Int64.sub now !last_speed >= speed_gap_ns
        then begin
          Speed.sample speed;
          let factor = Speed.factor speed in
          Array.iter (fun c -> if c.done_ns > !last_speed then c.factor <- factor) camps;
          last_speed := now
        end;
        let now = Proc.now_ns () in
        while !next < n && camps.(!next).due_ns <= now do
          submit !next now;
          incr next
        done;
        (if Int64.sub now !last_poll >= poll_gap_ns then
           match stalest () with
           | -1 -> ()
           | i ->
             let c = camps.(i) in
             c.polling <- true;
             c.last_poll_ns <- now;
             last_poll := now;
             send b i (request "GET" ("/campaigns/" ^ c.cid)));
        flush a;
        flush b;
        (* sleep until the next due submission or poll *)
        let wake =
          if !next < n then min camps.(!next).due_ns (Int64.add now poll_gap_ns)
          else Int64.add now poll_gap_ns
        in
        let timeout = Float.max 0. (Int64.to_float (Int64.sub wake now) /. 1e9) in
        let writers =
          List.filter_map
            (fun c -> if Buffer.length c.outq > 0 then Some c.fd else None)
            [ a; b ]
        in
        match Unix.select [ a.fd; b.fd ] writers [] timeout with
        | readable, _, _ ->
          List.iter
            (fun (conn, on_reply) ->
              if List.memq conn.fd readable then begin
                fill conn;
                let rec drain () =
                  match next_response conn with
                  | None -> ()
                  | Some reply ->
                    on_reply camps.(Queue.pop conn.waiting) (Proc.now_ns ()) reply;
                    drain ()
                in
                drain ()
              end)
            [ (a, on_submit_reply); (b, on_poll_reply) ]
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      Array.iter
        (fun c -> if c.done_ns = 0L then c.status <- "still open when the run gave up")
        camps;
      match call b (request "GET" "/metrics") with
      | 200, _, body -> Some body
      | _ -> None)

(* Campaigns due by an open loop of [rate] arrivals per second over
   [seconds], each arrival [burst] campaigns submitted together: evenly
   spaced, in rounds of all [suts], each round starting one SUT further
   along (so in arrivals of every SUT each takes every place in the
   queue), each at a campaign seed drawn from [seeds].  Poisson arrivals
   would model independent users more closely, but with the few dozen
   arrivals a run affords, their bursts alone moved the median latency
   by a quarter between seeds, which would hide any regression in the
   daemon itself. *)
let schedule ~rng ~rate ~burst ~seconds ~suts ~seeds ~start_ns =
  let per_round = List.length suts in
  let rounds =
    max 1
      (int_of_float
         (Float.round (rate *. seconds *. float_of_int burst /. float_of_int per_round)))
  in
  let seeds = Array.of_list seeds and suts = Array.of_list suts in
  Array.init (rounds * per_round) (fun i ->
      campaign
        ~sut:suts.((i + (i / per_round)) mod per_round)
        ~seed:seeds.(Random.State.int rng (Array.length seeds))
        ~due_ns:
          (Int64.add start_ns (Int64.of_float (float_of_int (i / burst) /. rate *. 1e9))))
