module Outcome = Conferr.Outcome
module Scenario = Errgen.Scenario

let quarantine_lock = Mutex.create ()

(* A scenario id is [a-z0-9-]+ by construction (relabel_ids), but the
   quarantine dir must stay safe even for hand-made ids. *)
let sanitize id =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    id

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc contents)

let crash_report ~sut_name ~seed scenario crash =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  add "scenario: %s\n" scenario.Scenario.id;
  add "class: %s\n" scenario.Scenario.class_name;
  add "description: %s\n" scenario.Scenario.description;
  add "sut: %s\n" sut_name;
  (match seed with Some s -> add "seed: %d\n" s | None -> ());
  add "cause: %s\n" (Outcome.cause_to_string crash.Outcome.cause);
  add "phase: %s\n" (Outcome.phase_label crash.Outcome.phase);
  if crash.Outcome.backtrace <> "" then
    add "backtrace:\n%s\n" crash.Outcome.backtrace;
  Buffer.contents b

let repro_command ~sut_name ~seed scenario =
  match seed with
  | Some s ->
    Printf.sprintf
      "conferr profile --sut %s --seed %d --only %s --timeout 5\n" sut_name s
      scenario.Scenario.id
  | None ->
    Printf.sprintf "conferr profile --sut %s --only %s --timeout 5\n" sut_name
      scenario.Scenario.id

(* Best effort by contract: a repro bundle that cannot be written must
   never take the campaign down with it. *)
let write ~dir ~sut ~base ?seed scenario crash =
  try
    let bundle = Filename.concat dir (sanitize scenario.Scenario.id) in
    mkdir_p bundle;
    write_file
      (Filename.concat bundle "crash.txt")
      (crash_report ~sut_name:sut.Suts.Sut.sut_name ~seed scenario crash);
    write_file
      (Filename.concat bundle "repro.sh")
      (repro_command ~sut_name:sut.Suts.Sut.sut_name ~seed scenario);
    (match Conferr.Engine.materialize ~sut ~base scenario with
    | Ok files ->
      List.iter
        (fun (name, contents) ->
          write_file
            (Filename.concat bundle ("faulty-" ^ sanitize name))
            contents)
        files
    | Error msg ->
      write_file (Filename.concat bundle "materialize-error.txt") (msg ^ "\n"));
    Some bundle
  with _ -> None

let flaky_path dir = Filename.concat dir "flaky.txt"

let load_flaky dir =
  let path = flaky_path dir in
  if not (Sys.file_exists path) then []
  else
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          let rec loop acc =
            match input_line ic with
            | line ->
              let line = String.trim line in
              loop (if line = "" then acc else line :: acc)
            | exception End_of_file -> List.rev acc
          in
          loop [])
    with _ -> []

let record_flaky ~dir ids =
  if ids <> [] then
    try
      Mutex.lock quarantine_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock quarantine_lock)
        (fun () ->
          mkdir_p dir;
          let known = load_flaky dir in
          let fresh =
            List.filter (fun id -> not (List.mem id known)) ids
            |> List.sort_uniq compare
          in
          if fresh <> [] then begin
            let oc =
              open_out_gen [ Open_append; Open_creat ] 0o644 (flaky_path dir)
            in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                List.iter (fun id -> output_string oc (id ^ "\n")) fresh)
          end)
    with _ -> ()
