(* Host speed reference.  The hosts this benchmark runs on are shared:
   for stretches of 5–15 s at a time every process on them runs up to
   1.7x slower, so the raw time of the same campaign can differ by a
   third between two runs.  Around each request the benchmark runs a
   fixed program of its own, reference.exe, which shares no code with
   conferr, so no change to conferr can move its time; it divides the
   request's times by how much slower than nominal the reference
   currently runs.  Times reported "at reference speed" are times as
   they would be on a host running reference.exe in [nominal_ms].

   A fresh process is the reference because process start and heap
   growth slow down in stretches of their own that an in-process loop
   does not see. *)

(* The reference's time on the quiet host that recorded the baseline
   (README.md). *)
let nominal_ms = 3.2

let window = 5

type t = {
  program : string option;  (** [None]: never timed, factor 1 *)
  cpu : int option;  (** the CPU it runs on, that of the program it stands in for *)
  mutable recent : float list;  (** newest first *)
}

let create ?cpu ~program () = { program = Some program; cpu; recent = [] }

(* For runs that report no times at reference speed. *)
let off () = { program = None; cpu = None; recent = [] }

(* Time the reference once more. *)
let sample t =
  Option.iter
    (fun program ->
      let t0 = Proc.now_ns () in
      let pid =
        Proc.spawn ?cpu:t.cpu program [] ~stdout:Unix.stdout ~stderr:Unix.stderr
      in
      if Proc.reap pid <> 0 then failwith (program ^ " failed");
      let ms = Proc.ms_between t0 (Proc.now_ns ()) in
      t.recent <- List.filteri (fun i _ -> i < window) (ms :: t.recent))
    t.program

(* How much slower than nominal the host runs now: the median of the
   last [window] samples over [nominal_ms]; 1 before any sample. *)
let factor t = match t.recent with [] -> 1. | r -> Stats.median r /. nominal_ms
