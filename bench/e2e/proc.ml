(* Child processes of the benchmark: the conferr CLI runs and the serve
   daemon.  Every child still alive when the benchmark exits — normally,
   on an exception, or on SIGINT/SIGTERM — is killed and reaped first. *)

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let live : (int, unit) Hashtbl.t = Hashtbl.create 8

let code_of = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> -abs s

let reap pid =
  let _, status = Unix.waitpid [] pid in
  Hashtbl.remove live pid;
  code_of status

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (reap pid) with Unix.Unix_error _ -> ())
    (List.of_seq (Hashtbl.to_seq_keys live))

let () =
  at_exit kill_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

(* Peak resident set of a running process, in KiB (VmHWM); 0 once it has
   released its memory.  wait4's ru_maxrss cannot stand in for it: Linux
   carries the parent's peak into the child across fork and exec, so
   every child would report at least the benchmark's own size. *)
let vm_hwm_kib pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kib :: _ -> Option.value (int_of_string_opt kib) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0
      (String.split_on_char '\n' text)

external get_affinity : unit -> int array = "bench_get_affinity"
external set_affinity : int array -> bool = "bench_set_affinity"

(* One CPU to pin a child to, if there is another one left for the rest:
   the last this process may run on. *)
let spare_cpu =
  lazy
    (match List.rev (Array.to_list (get_affinity ())) with
     | last :: _ :: _ -> Some last
     | _ -> None)

(* Run [f] with this (single-threaded) process restricted to [cpu], so
   that what it spawns inherits that affinity. *)
let on_cpu cpu f =
  match cpu with
  | None -> f ()
  | Some c ->
    let all = get_affinity () in
    if set_affinity [| c |] then
      Fun.protect ~finally:(fun () -> ignore (set_affinity all)) f
    else f ()

(* [env]: variables set for the child on top of the benchmark's own.
   [cpu]: the one CPU the child may run on. *)
let spawn ?(env = []) ?cpu prog args ~stdout ~stderr =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let overridden kv =
    List.exists (fun (k, _) -> String.starts_with ~prefix:(k ^ "=") kv) env
  in
  let environment =
    Array.of_list
      (List.map (fun (k, v) -> k ^ "=" ^ v) env
      @ List.filter (fun kv -> not (overridden kv)) (Array.to_list (Unix.environment ())))
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        on_cpu cpu (fun () ->
            Unix.create_process_env prog (Array.of_list (prog :: args)) environment null
              stdout stderr))
  in
  Hashtbl.replace live pid ();
  pid

type run = {
  code : int;  (** exit status; minus the signal when killed *)
  out : string;
  err : string;
  spawn_ns : int64;
  first_out_ns : int64;  (** first stdout byte; the exit time if none *)
  exit_ns : int64;
  hwm_kib : int;  (** peak RSS, sampled every [sample_s] until exit *)
}

let run_failed r = r.code < 0 || r.code >= 2
let sample_s = 0.002
let timeout_s = 60.

(* Run [prog args] to completion, capturing both output streams.  A child
   still running after [timeout_s] is killed (and reported killed). *)
let run prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let spawn_ns = now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out_w; Unix.close err_w)
      (fun () -> spawn prog args ~stdout:out_w ~stderr:err_w)
  in
  let out = Buffer.create 4096 and err = Buffer.create 256 in
  let first_out = ref 0L and hwm = ref 0 in
  let chunk = Bytes.create 65536 in
  let deadline = Int64.add spawn_ns (Int64.of_float (timeout_s *. 1e9)) in
  let open_fds = ref [ (out_r, out); (err_r, err) ] in
  let killed = ref false in
  while !open_fds <> [] do
    if now_ns () > deadline && not !killed then begin
      killed := true;
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
    end;
    (match Unix.select (List.map fst !open_fds) [] [] sample_s with
     | ready, _, _ ->
       List.iter
         (fun fd ->
           let buf = List.assq fd !open_fds in
           let n = Unix.read fd chunk 0 (Bytes.length chunk) in
           if n = 0 then begin
             Unix.close fd;
             open_fds := List.filter (fun (f, _) -> f != fd) !open_fds
           end
           else begin
             if fd == out_r && !first_out = 0L then first_out := now_ns ();
             Buffer.add_subbytes buf chunk 0 n
           end)
         ready
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    hwm := max !hwm (vm_hwm_kib pid)
  done;
  let code = reap pid in
  let exit_ns = now_ns () in
  {
    code = (if !killed then -9 else code);
    out = Buffer.contents out;
    err = Buffer.contents err;
    spawn_ns;
    first_out_ns = (if !first_out = 0L then exit_ns else !first_out);
    exit_ns;
    hwm_kib = !hwm;
  }

let grace_s = 30.

(* SIGTERM, then wait up to [grace_s] before SIGKILL; the exit code. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Int64.add (now_ns ()) (Int64.of_float (grace_s *. 1e9)) in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_ns () < deadline ->
      Unix.sleepf 0.002;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid
    | _, status ->
      Hashtbl.remove live pid;
      code_of status
  in
  poll ()
