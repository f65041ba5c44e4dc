module Json = Conferr_obsv.Json
module Outcome = Conferr.Outcome
module Diskchaos = Conferr_harden.Diskchaos

let format_version = 2

exception Fault of string

(* Storage-level failures surface as [Fault] so callers (executor,
   daemon, CLI) can tell "the journal's disk is failing" apart from a
   scenario failure.  [Diskchaos.Killed] is the injected crash point. *)
let fault_of_exn path = function
  | Sys_error msg -> Fault msg
  | Diskchaos.Killed off ->
    Fault
      (Printf.sprintf "%s: journal writer killed at byte offset %d (injected)"
         path off)
  | exn -> exn

let faultable path f = try f () with exn -> raise (fault_of_exn path exn)

type entry = {
  scenario_id : string;
  class_name : string;
  description : string;
  seed : int64;
  outcome : Outcome.t;
  elapsed_ms : float;
  attempts : int;
  votes : Outcome.t list;
  phase_ms : (string * float) list;
}

(* The outcome is stored as its profile label plus the detail messages;
   together they reconstruct the constructor exactly.  For [Crashed] the
   detail carries cause, phase, then the backtrace. *)
let outcome_detail = function
  | Outcome.Startup_failure msg -> [ msg ]
  | Outcome.Test_failure msgs -> msgs
  | Outcome.Passed -> []
  | Outcome.Not_applicable msg -> [ msg ]
  | Outcome.Crashed c ->
    [ Outcome.cause_to_string c.cause; Outcome.phase_label c.phase; c.backtrace ]

let outcome_of_parts label detail =
  match label with
  | "startup" ->
    Ok (Outcome.Startup_failure (match detail with m :: _ -> m | [] -> ""))
  | "functional" -> Ok (Outcome.Test_failure detail)
  | "ignored" -> Ok Outcome.Passed
  | "n/a" ->
    Ok (Outcome.Not_applicable (match detail with m :: _ -> m | [] -> ""))
  | "crashed" -> (
    match detail with
    | cause_s :: phase_s :: rest -> (
      match (Outcome.cause_of_string cause_s, Outcome.phase_of_label phase_s) with
      | Some cause, Some phase ->
        Ok
          (Outcome.Crashed
             { cause; phase; backtrace = String.concat "\n" rest })
      | None, _ -> Error (Printf.sprintf "unknown crash cause %S" cause_s)
      | _, None -> Error (Printf.sprintf "unknown crash phase %S" phase_s))
    | _ -> Error "crashed outcome needs cause and phase detail")
  | other -> Error (Printf.sprintf "unknown outcome label %S" other)

let outcome_to_json o =
  Json.Obj
    [
      ("outcome", Json.Str (Outcome.label o));
      ("detail", Json.Arr (List.map (fun m -> Json.Str m) (outcome_detail o)));
    ]

let entry_to_json e =
  (* "phase" arrived with v2.1 (observability); omitted when empty so
     journals written with tracing off are byte-identical to v2. *)
  let optional =
    if e.phase_ms = [] then []
    else
      [ ("phase", Json.Obj (List.map (fun (p, ms) -> (p, Json.Num ms)) e.phase_ms)) ]
  in
  let optional =
    if e.votes = [] then optional
    else ("votes", Json.Arr (List.map outcome_to_json e.votes)) :: optional
  in
  Json.Obj
    (("id", Json.Str e.scenario_id)
    :: ("class", Json.Str e.class_name)
    :: ("seed", Json.Str (Int64.to_string e.seed))
    :: ("outcome", Json.Str (Outcome.label e.outcome))
    :: ("detail", Json.Arr (List.map (fun m -> Json.Str m) (outcome_detail e.outcome)))
    :: ("ms", Json.Num e.elapsed_ms)
    :: ("attempts", Json.Num (float_of_int e.attempts))
    :: ("desc", Json.Str e.description)
    :: optional)

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let outcome_of_json j =
  let* label = field "outcome" Json.str j in
  let* detail = field "detail" Json.str_list j in
  outcome_of_parts label detail

let entry_of_json j =
  let* scenario_id = field "id" Json.str j in
  let* class_name = field "class" Json.str j in
  let* description = field "desc" Json.str j in
  let* seed_text = field "seed" Json.str j in
  let* seed =
    match Int64.of_string_opt seed_text with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "bad seed %S" seed_text)
  in
  let* outcome = outcome_of_json j in
  let* elapsed_ms = field "ms" Json.num j in
  (* [attempts] and [votes] arrived with format v2; a v1 entry is one
     clean attempt. *)
  let* attempts =
    match Json.member "attempts" j with
    | None -> Ok 1
    | Some a -> (
      match Json.num a with
      | Some n when n >= 0.0 -> Ok (int_of_float n)
      | _ -> Error "ill-typed field \"attempts\"")
  in
  let* votes =
    match Json.member "votes" j with
    | None -> Ok []
    | Some (Json.Arr vs) ->
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          let* o = outcome_of_json v in
          Ok (o :: acc))
        (Ok []) vs
      |> Result.map List.rev
    | Some _ -> Error "ill-typed field \"votes\""
  in
  let* phase_ms =
    match Json.member "phase" j with
    | None -> Ok []
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (p, v) ->
          let* acc = acc in
          match Json.num v with
          | Some ms when ms >= 0.0 -> Ok ((p, ms) :: acc)
          | _ -> Error "ill-typed field \"phase\"")
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error "ill-typed field \"phase\""
  in
  Ok
    { scenario_id; class_name; description; seed; outcome; elapsed_ms;
      attempts; votes; phase_ms }

(* v2 line: {"v":2,"crc":"<8 hex>","entry":{...}}.  The CRC covers the
   bytes of the entry member as written, which are its canonical
   serialization: the writer renders the body once, hashes it and puts
   the fixed wrapper around it.  A v1 line is the bare entry object.
   The v3 store (a directory of segments, see {!Segstore}) keeps this
   exact line format — v3 is a layout change, not a wire change. *)
let line_prefix = Printf.sprintf {|{"v":%d,"crc":"|} format_version
let entry_key = {|","entry":|}
let crc_at = String.length line_prefix
let body_at = crc_at + 8 + String.length entry_key

let render e =
  let body = Json.to_string (entry_to_json e) in
  let n = String.length body in
  let line = Bytes.create (body_at + n + 2) in
  Bytes.blit_string line_prefix 0 line 0 crc_at;
  Bytes.blit_string (Crc32.to_hex (Crc32.string body)) 0 line crc_at 8;
  Bytes.blit_string entry_key 0 line (crc_at + 8) (String.length entry_key);
  Bytes.blit_string body 0 line body_at n;
  Bytes.set line (body_at + n) '}';
  Bytes.set line (body_at + n + 1) '\n';
  Bytes.unsafe_to_string line

(* The canonical check, for any line the fast path below does not
   take: parse the whole line and hash the re-serialized entry member.
   It accepts v1 lines and v2 lines laid out by other writers. *)
let entry_of_line j =
  match Json.member "v" j with
  | None -> entry_of_json j
  | Some v -> (
    match Json.num v with
    | Some f when f = float_of_int format_version ->
      let* crc_hex = field "crc" Json.str j in
      let* crc =
        match Crc32.of_hex crc_hex with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "bad crc %S" crc_hex)
      in
      let* body =
        match Json.member "entry" j with
        | Some b -> Ok b
        | None -> Error "missing field \"entry\""
      in
      let actual = Crc32.string (Json.to_string body) in
      if actual <> crc then
        Error
          (Printf.sprintf "crc mismatch: line says %s, entry hashes to %s"
             crc_hex (Crc32.to_hex actual))
      else entry_of_json body
    | Some f -> Error (Printf.sprintf "unsupported journal line version %g" f)
    | None -> Error "ill-typed field \"v\"")

let has_at line off key =
  let rec go i =
    i = String.length key || (line.[off + i] = key.[i] && go (i + 1))
  in
  go 0

(* Fast path: a line in exactly {!render}'s layout (newline stripped)
   whose CRC matches its raw entry bytes; only those bytes are parsed. *)
let rendered_entry line =
  let len = String.length line in
  let body_len = len - body_at - 1 in
  if
    body_len > 0
    && has_at line 0 line_prefix
    && has_at line (crc_at + 8) entry_key
    && line.[len - 1] = '}'
    && Crc32.of_hex (String.sub line crc_at 8) = Some (Crc32.sub line body_at body_len)
  then
    match Json.of_string (String.sub line body_at body_len) with
    | Ok body -> Result.to_option (entry_of_json body)
    | Error _ -> None
  else None

type line_verdict = Blank | Torn | Corrupt | Valid of entry

(* A blank line is harmless.  Torn = not even JSON (the truncated-write
   shape); corrupt = parses as JSON but fails CRC or decoding. *)
let decode_line line =
  if String.trim line = "" then Blank
  else
    match rendered_entry line with
    | Some e -> Valid e
    | None -> (
      match Json.of_string line with
      | Error _ -> Torn
      | Ok j -> ( match entry_of_line j with Ok e -> Valid e | Error _ -> Corrupt))

let is_store = Segstore.is_store

(* Read-side dispatch is more lenient than [is_store]: a directory
   that is not (yet) a recognizable store — e.g. a store whose creation
   was killed before its first manifest write became durable — must
   still be read (as empty) and surveyed/repaired as a store, never fed
   to the single-file reader. *)
let reads_as_store path =
  is_store path || (Sys.file_exists path && Sys.is_directory path)

let verified line = match decode_line line with Valid e -> Some e | _ -> None

let load path =
  if reads_as_store path then List.filter_map verified (Segstore.read_lines path)
  else
    match open_in_bin path with
    | exception Sys_error _ -> []
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec lines acc =
            match input_line ic with
            | exception End_of_file -> List.rev acc
            | line ->
              (* torn, corrupt or foreign lines are tolerated *)
              lines (match verified line with Some e -> e :: acc | None -> acc)
          in
          lines [])

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error _ -> ""

let read_text path =
  if reads_as_store path then Segstore.read_text path else read_file path

(* ---- writing ---- *)

type sink = File of Diskchaos.file | Segments of Segstore.t

type writer = {
  path : string;
  sink : sink;
  fresh_file : bool;
      (* a single file this writer truncated: it holds exactly the
         lines appended through it *)
  lock : Mutex.t;  (* one line at a time into a file *)
  appended : (entry * string) list Atomic.t;  (* newest first *)
}

let open_append ?(fresh = false) ?segment_bytes ?io path =
  let writer ?(fresh_file = false) sink =
    { path; sink; fresh_file; lock = Mutex.create (); appended = Atomic.make [] }
  in
  faultable path (fun () ->
      match segment_bytes with
      | Some sb ->
        if Sys.file_exists path && not (Sys.is_directory path) then
          raise
            (Sys_error
               (path
              ^ ": exists as a single-file journal; a segmented \
                 (--segment-bytes) journal is a directory — remove the file \
                 or choose another path"));
        writer (Segments (Segstore.create ?io ~fresh ~segment_bytes:sb path))
      | None ->
        if Segstore.is_store path then
          writer (Segments (Segstore.create ?io ~fresh path))
        else if Sys.file_exists path && Sys.is_directory path then
          raise
            (Sys_error
               (path
              ^ ": is a directory, not a journal file (pass --segment-bytes \
                 to write a segmented v3 store there)"))
        else
          let io = Option.value io ~default:Diskchaos.real in
          writer ~fresh_file:fresh (File (io.open_file ~append:(not fresh) path)))

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Lock-free, so a store's domains share no lock on the data path. *)
let rec remember w appended =
  let before = Atomic.get w.appended in
  if not (Atomic.compare_and_set w.appended before (appended :: before)) then
    remember w appended

(* One write and one flush per line: Diskchaos draws a fault per write.
   A file's lines are remembered under its lock, in the order they were
   written, which is what lets the checkpoint leave the file as it is. *)
let append w e =
  let line = render e in
  faultable w.path (fun () ->
      match w.sink with
      | File f ->
        locked w.lock (fun () ->
            f.write line;
            f.flush ();
            remember w (e, line))
      | Segments store ->
        Segstore.append_line store line;
        remember w (e, line))

(* Best-effort: the writer is closed in cleanup paths where a raise
   would mask the original failure; unsynced damage is fsck's job. *)
let close w =
  match w.sink with
  | File f -> f.close ()
  | Segments s -> ( try Segstore.close s with _ -> ())

let checkpoint ?io ?segment_bytes ?writer path entries =
  let appended =
    match writer with Some w -> List.rev (Atomic.get w.appended) | None -> []
  in
  let final =
    match writer with
    | Some w ->
      w.fresh_file && w.path = path
      && List.compare_lengths appended entries = 0
      && List.for_all2 (fun (a, _) e -> a == e) appended entries
    | None -> false
  in
  if not final then begin
    (* reorder the lines already rendered (equal entries render equal
       lines); render only the rest, the entries a resumed campaign
       took from the old journal *)
    let rendered = Hashtbl.create (List.length appended) in
    List.iter (fun (e, line) -> Hashtbl.replace rendered e line) appended;
    let line_of e =
      match Hashtbl.find_opt rendered e with Some line -> line | None -> render e
    in
    let lines = List.map line_of entries in
    faultable path (fun () ->
        if is_store path || segment_bytes <> None then
          Segstore.checkpoint ?io ?segment_bytes path lines
        else begin
          let io = Option.value io ~default:Diskchaos.real in
          let tmp = path ^ ".tmp" in
          let f = io.open_file ~append:false tmp in
          Fun.protect
            ~finally:(fun () -> f.close ())
            (fun () ->
              List.iter f.write lines;
              f.flush ());
          io.rename tmp path
        end)
  end

(* ---- fsck ---- *)

type fsck_report = {
  valid : int;
  torn : int;
  corrupt : int;
  valid_prefix_bytes : int;
}

let clean r = r.torn = 0 && r.corrupt = 0

let fsck_text data =
  let len = String.length data in
  let rec loop pos valid torn corrupt prefix prefix_ok =
    if pos >= len then { valid; torn; corrupt; valid_prefix_bytes = prefix }
    else
      let nl =
        match String.index_from_opt data pos '\n' with
        | Some i -> i
        | None -> len
      in
      let line = String.sub data pos (nl - pos) in
      let line_end = if nl >= len then len else nl + 1 in
      (* a blank line extends the valid prefix but counts as no entry *)
      match decode_line line with
      | Blank ->
        loop line_end valid torn corrupt
          (if prefix_ok then line_end else prefix)
          prefix_ok
      | Valid _ ->
        loop line_end (valid + 1) torn corrupt
          (if prefix_ok then line_end else prefix)
          prefix_ok
      | Torn -> loop line_end valid (torn + 1) corrupt prefix false
      | Corrupt -> loop line_end valid torn (corrupt + 1) prefix false
  in
  loop 0 0 0 0 0 true

let fsck_file path = fsck_text (read_file path)

let repair_file path =
  let report = fsck_file path in
  if not (clean report) then begin
    let data = read_file path in
    let keep =
      String.sub data 0 (min report.valid_prefix_bytes (String.length data))
    in
    let tmp = path ^ ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc keep;
        flush oc);
    Sys.rename tmp path
  end;
  report

(* ---- store-aware survey (fsck with segment detail) ---- *)

type segment_standing = File | Sealed | Open | Orphan

let standing_label = function
  | File -> "file"
  | Sealed -> "sealed"
  | Open -> "open"
  | Orphan -> "orphan"

type segment_fsck = {
  segment : string;
  standing : segment_standing;
  crc_ok : bool;
  counts : fsck_report;
  dropped : int;
}

type survey = {
  path : string;
  store : bool;
  manifest_ok : bool;
  segments : segment_fsck list;
  repaired : bool;
}

let segment_clean s = clean s.counts && s.crc_ok && s.standing <> Orphan

let survey_clean s =
  s.manifest_ok && List.for_all segment_clean s.segments

let survey_totals s =
  List.fold_left
    (fun acc seg ->
      {
        valid = acc.valid + seg.counts.valid;
        torn = acc.torn + seg.counts.torn;
        corrupt = acc.corrupt + seg.counts.corrupt;
        valid_prefix_bytes =
          acc.valid_prefix_bytes + seg.counts.valid_prefix_bytes;
      })
    { valid = 0; torn = 0; corrupt = 0; valid_prefix_bytes = 0 }
    s.segments

let survey_store ?(repair = false) path =
  let scan () =
    let manifest_ok = Segstore.load_manifest path <> None in
    let segments =
      List.map
        (fun (name, standing) ->
          let data = read_file (Filename.concat path name) in
          let counts = fsck_text data in
          let standing, crc_ok =
            match standing with
            | Segstore.Sealed_as s ->
              ( Sealed,
                s.Segstore.crc = Crc32.string data
                && s.Segstore.bytes = String.length data )
            | Segstore.Open -> (Open, true)
            | Segstore.Orphan -> (Orphan, true)
          in
          { segment = name; standing; crc_ok; counts; dropped = 0 })
        (Segstore.segments path)
    in
    { path; store = true; manifest_ok; segments; repaired = false }
  in
  let before = scan () in
  if repair && not (survey_clean before) then begin
    let segments =
      List.map
        (fun seg ->
          if seg.standing <> Orphan && not (clean seg.counts) then begin
            Segstore.truncate_segment ~dir:path seg.segment
              seg.counts.valid_prefix_bytes;
            { seg with dropped = seg.counts.torn + seg.counts.corrupt }
          end
          else seg)
        before.segments
    in
    (* Reseal rebuilds the manifest from the healed files and deletes
       orphan segments and temp leftovers. *)
    Segstore.reseal path;
    { before with segments; repaired = true }
  end
  else before

let survey ?(repair = false) path =
  if reads_as_store path then survey_store ~repair path
  else begin
    let counts = if repair then repair_file path else fsck_file path in
    let damaged = not (clean counts) in
    {
      path;
      store = false;
      manifest_ok = true;
      segments =
        [
          {
            segment = Filename.basename path;
            standing = File;
            crc_ok = true;
            counts;
            dropped = (if repair && damaged then counts.torn + counts.corrupt else 0);
          };
        ];
      repaired = repair && damaged;
    }
  end

let survey_to_json s =
  let totals = survey_totals s in
  Json.Obj
    [
      ("path", Json.Str s.path);
      ("store", Json.Bool s.store);
      ("manifest_ok", Json.Bool s.manifest_ok);
      ("clean", Json.Bool (survey_clean s || s.repaired));
      ("repaired", Json.Bool s.repaired);
      ("valid", Json.Num (float_of_int totals.valid));
      ("torn", Json.Num (float_of_int totals.torn));
      ("corrupt", Json.Num (float_of_int totals.corrupt));
      ( "segments",
        Json.Arr
          (List.map
             (fun seg ->
               Json.Obj
                 [
                   ("segment", Json.Str seg.segment);
                   ("standing", Json.Str (standing_label seg.standing));
                   ("valid", Json.Num (float_of_int seg.counts.valid));
                   ("torn", Json.Num (float_of_int seg.counts.torn));
                   ("corrupt", Json.Num (float_of_int seg.counts.corrupt));
                   ( "valid_prefix_bytes",
                     Json.Num (float_of_int seg.counts.valid_prefix_bytes) );
                   ("crc_ok", Json.Bool seg.crc_ok);
                   ("repaired", Json.Num (float_of_int seg.dropped));
                 ])
             s.segments) );
    ]

(* Single-file compatibility surface: [fsck]/[repair] keep their
   historical signatures and, on a v3 store, aggregate across
   segments. *)
let fsck path =
  if reads_as_store path then survey_totals (survey path) else fsck_file path

(* ---- CLI-facing path validation (exit-2 material) ---- *)

let validate_path ?segment_bytes path =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let writable p =
    match Unix.access p [ Unix.W_OK ] with
    | () -> true
    | exception Unix.Unix_error _ -> false
  in
  let parent = Filename.dirname path in
  if not (Sys.file_exists parent) then
    err "%s: parent directory %s does not exist" path parent
  else if not (Sys.is_directory parent) then
    err "%s: %s is not a directory" path parent
  else if not (writable parent) then
    err "%s: parent directory %s is not writable" path parent
  else if not (Sys.file_exists path) then Ok ()
  else if Sys.is_directory path then
    if Segstore.is_store path || segment_bytes <> None then
      if writable path then Ok ()
      else err "%s: journal directory is not writable" path
    else
      err
        "%s: is a directory, not a journal file (pass --segment-bytes N to \
         write a segmented v3 store there, or point the journal at a file \
         path)"
        path
  else if segment_bytes <> None then
    err
      "%s: exists as a single-file journal; a segmented (--segment-bytes) \
       journal is a directory — remove the file or choose another path"
      path
  else if not (writable path) then err "%s: journal is not writable" path
  else Ok ()
