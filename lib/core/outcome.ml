type crash_phase = Boot | Test | Harness

type crash_cause =
  | Uncaught of string
  | Stack_overflow_crash
  | Out_of_memory_crash
  | Fuel_exhausted of int
  | Timeout of float
  | Breaker_open of string

type crash = { cause : crash_cause; phase : crash_phase; backtrace : string }

type t =
  | Startup_failure of string
  | Test_failure of string list
  | Passed
  | Not_applicable of string
  | Crashed of crash

let detected = function
  | Startup_failure _ | Test_failure _ | Crashed _ -> true
  | Passed | Not_applicable _ -> false

let label = function
  | Startup_failure _ -> "startup"
  | Test_failure _ -> "functional"
  | Passed -> "ignored"
  | Not_applicable _ -> "n/a"
  | Crashed _ -> "crashed"

let phase_label = function Boot -> "boot" | Test -> "test" | Harness -> "harness"

let phase_of_label = function
  | "boot" -> Some Boot
  | "test" -> Some Test
  | "harness" -> Some Harness
  | _ -> None

(* Machine-readable cause codes, used by the journal; [cause_of_string]
   is the exact inverse for every value [cause_to_string] emits. *)
let cause_to_string = function
  | Uncaught msg -> "exn:" ^ msg
  | Stack_overflow_crash -> "stack-overflow"
  | Out_of_memory_crash -> "out-of-memory"
  | Fuel_exhausted budget -> Printf.sprintf "fuel:%d" budget
  | Timeout s -> Printf.sprintf "timeout:%h" s
  | Breaker_open bucket -> "breaker:" ^ bucket

let after_prefix ~prefix s =
  let plen = String.length prefix in
  if String.length s >= plen && String.sub s 0 plen = prefix then
    Some (String.sub s plen (String.length s - plen))
  else None

let cause_of_string s =
  match s with
  | "stack-overflow" -> Some Stack_overflow_crash
  | "out-of-memory" -> Some Out_of_memory_crash
  | _ ->
    (match after_prefix ~prefix:"exn:" s with
     | Some msg -> Some (Uncaught msg)
     | None ->
       (match after_prefix ~prefix:"fuel:" s with
        | Some n -> Option.map (fun n -> Fuel_exhausted n) (int_of_string_opt n)
        | None ->
          (match after_prefix ~prefix:"timeout:" s with
           | Some f -> Option.map (fun f -> Timeout f) (float_of_string_opt f)
           | None ->
             Option.map
               (fun b -> Breaker_open b)
               (after_prefix ~prefix:"breaker:" s))))

let cause_summary = function
  | Uncaught msg -> Printf.sprintf "uncaught exception: %s" msg
  | Stack_overflow_crash -> "stack overflow"
  | Out_of_memory_crash -> "out of memory"
  | Fuel_exhausted budget -> Printf.sprintf "fuel budget of %d steps exhausted" budget
  | Timeout s -> Printf.sprintf "timed out after %gs" s
  | Breaker_open bucket ->
    Printf.sprintf "skipped: circuit breaker open for %s" bucket

let crash_summary c =
  Printf.sprintf "%s [%s]" (cause_summary c.cause) (phase_label c.phase)
