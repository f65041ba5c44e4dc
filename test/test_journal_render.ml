(* Differential tests for the journal's line rendering and verification.

   The oracle below is the previous implementation, kept verbatim: the
   JSON encoder (closure-per-character escaping, "%.0f" integers), the
   Int32 table CRC-32, the renderer that built the whole wrapper as a
   JSON value, and the check that parses a line, serializes its entry
   member again and compares CRCs.  The journal must render the same
   bytes and give every line the same verdict. *)

module Journal = Conferr_exec.Journal
module Executor = Conferr_exec.Executor
module Json = Conferr_obsv.Json
module Outcome = Conferr.Outcome

module Oracle = struct
  (* ---- the JSON encoder ---- *)

  let escape_string buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when c < ' ' || c > '~' ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec encode buf = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Num f -> Buffer.add_string buf (number_to_string f)
    | Json.Str s -> escape_string buf s
    | Json.Arr xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          encode buf x)
        xs;
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          encode buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 128 in
    encode buf v;
    Buffer.contents buf

  (* ---- CRC-32 over boxed Int32s ---- *)

  let table =
    Array.init 256 (fun n ->
        let c = ref (Int32.of_int n) in
        for _ = 0 to 7 do
          c :=
            if Int32.logand !c 1l <> 0l then
              Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
            else Int32.shift_right_logical !c 1
        done;
        !c)

  let update crc s =
    let crc = ref (Int32.lognot crc) in
    String.iter
      (fun ch ->
        let idx =
          Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
        in
        crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
      s;
    Int32.lognot !crc

  let crc_string s = update 0l s

  let to_hex crc = Printf.sprintf "%08lx" crc

  let of_hex s =
    if String.length s <> 8 then None
    else
      match Int64.of_string_opt ("0x" ^ s) with
      | Some v when Int64.unsigned_compare v 0x1_0000_0000L < 0 ->
        Some (Int64.to_int32 v)
      | _ -> None

  (* ---- the renderer and the re-serializing check ---- *)

  let format_version = 2

  let line_to_json e =
    let body = Journal.entry_to_json e in
    let crc = crc_string (to_string body) in
    Json.Obj
      [
        ("v", Json.Num (float_of_int format_version));
        ("crc", Json.Str (to_hex crc));
        ("entry", body);
      ]

  let ( let* ) = Result.bind

  let field name conv j =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

  let entry_of_line j =
    match Json.member "v" j with
    | None -> Journal.entry_of_json j
    | Some v -> (
      match Json.num v with
      | Some f when f = float_of_int format_version ->
        let* crc_hex = field "crc" Json.str j in
        let* crc =
          match of_hex crc_hex with
          | Some c -> Ok c
          | None -> Error (Printf.sprintf "bad crc %S" crc_hex)
        in
        let* body =
          match Json.member "entry" j with
          | Some b -> Ok b
          | None -> Error "missing field \"entry\""
        in
        let actual = crc_string (to_string body) in
        if actual <> crc then
          Error
            (Printf.sprintf "crc mismatch: line says %s, entry hashes to %s"
               crc_hex (to_hex actual))
        else Journal.entry_of_json body
      | Some f -> Error (Printf.sprintf "unsupported journal line version %g" f)
      | None -> Error "ill-typed field \"v\"")

  let classify_line line =
    if String.trim line = "" then `Blank
    else
      match Json.of_string line with
      | Error _ -> `Torn
      | Ok j -> (
        match entry_of_line j with Ok e -> `Valid e | Error _ -> `Corrupt)
end

(* Verdicts compared as strings; an entry by its oracle serialization. *)
let show_verdict = function
  | `Blank -> "blank"
  | `Torn -> "torn"
  | `Corrupt -> "corrupt"
  | `Valid e -> "valid " ^ Oracle.to_string (Journal.entry_to_json e)

let verdict line =
  match Journal.decode_line line with
  | Journal.Blank -> `Blank
  | Journal.Torn -> `Torn
  | Journal.Corrupt -> `Corrupt
  | Journal.Valid e -> `Valid e

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

open QCheck2.Gen

(* every byte value, with the ones the encoder treats specially drawn
   often enough to meet *)
let byte =
  oneof
    [ char; oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '\128'; '\255'; '~'; ' ' ] ]

let bytes = string_size ~gen:byte (int_range 0 24)

let number =
  oneof
    [
      oneofl
        [ -0.; 0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 1e16; nan; infinity;
          neg_infinity; 0.5; -2.5; 1e-300; max_float; min_float ];
      map float_of_int int;
      map float_of_int (int_range (-1000) 1000);
      map (fun (a, b) -> float_of_int a /. float_of_int (b + 1)) (pair int (int_range 0 1000));
      float;
    ]

let json =
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               pure Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun f -> Json.Num f) number;
               map (fun s -> Json.Str s) bytes;
             ]
         in
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (n - 1)));
               map
                 (fun kvs -> Json.Obj kvs)
                 (list_size (int_range 0 4) (pair bytes (self (n - 1))));
             ])

let crash =
  let* cause =
    oneof
      [
        map (fun s -> Outcome.Uncaught s) bytes;
        pure Outcome.Stack_overflow_crash;
        pure Outcome.Out_of_memory_crash;
        map (fun n -> Outcome.Fuel_exhausted n) (int_range 0 1_000_000);
        map (fun f -> Outcome.Timeout f) number;
        map (fun s -> Outcome.Breaker_open s) bytes;
      ]
  in
  let* phase = oneofl [ Outcome.Boot; Outcome.Test; Outcome.Harness ] in
  (* multi-line backtraces, as Printexc renders them *)
  let+ frames = list_size (int_range 0 4) bytes in
  Outcome.Crashed { cause; phase; backtrace = String.concat "\n" frames }

let outcome_gen =
  oneof
    [
      map (fun s -> Outcome.Startup_failure s) bytes;
      map (fun ms -> Outcome.Test_failure ms) (list_size (int_range 0 3) bytes);
      pure Outcome.Passed;
      map (fun s -> Outcome.Not_applicable s) bytes;
      crash;
    ]

let entry =
  let* scenario_id = bytes in
  let* class_name = bytes in
  let* description = bytes in
  let* seed = oneof [ int64; oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ] ] in
  let* outcome = outcome_gen in
  let* elapsed_ms = number in
  let* attempts = int_range 0 5 in
  let* votes = list_size (int_range 0 3) outcome_gen in
  let+ phase_ms = list_size (int_range 0 5) (pair bytes number) in
  {
    Journal.scenario_id; class_name; description; seed; outcome; elapsed_ms;
    attempts; votes; phase_ms;
  }

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_encoder =
  QCheck2.Test.make ~count:2000 ~name:"json: encoder equals the oracle"
    ~print:Oracle.to_string json (fun v ->
      let got = Json.to_string v and want = Oracle.to_string v in
      if got <> want then QCheck2.Test.fail_reportf "got %s, want %s" got want;
      true)

let prop_rendered_line =
  QCheck2.Test.make ~count:1000
    ~name:"journal: rendered line and its verdict equal the oracle's"
    ~print:(fun e -> Oracle.to_string (Journal.entry_to_json e))
    entry
    (fun e ->
      let line = Journal.render e in
      let want = Oracle.to_string (Oracle.line_to_json e) ^ "\n" in
      if line <> want then QCheck2.Test.fail_reportf "got %s, want %s" line want;
      let bare = String.sub line 0 (String.length line - 1) in
      let got = show_verdict (verdict bare)
      and want = show_verdict (Oracle.classify_line bare) in
      if got <> want then QCheck2.Test.fail_reportf "verdict %s, want %s" got want;
      true)

let test_number_edges () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string) (Printf.sprintf "%h" f) want (Json.to_string (Json.Num f)))
    [ (-0., "-0"); (0., "0"); (1e15 -. 1., "999999999999999");
      (-.(1e15 -. 1.), "-999999999999999"); (1e15, "1000000000000000");
      (0.25, "0.25"); (nan, "nan"); (infinity, "inf") ]

(* A recorded postgres seed-1 journal, every line changed in one byte at
   a time, each to three other values: the classifier must give the
   oracle's fsck verdict and decode the same entry. *)
let recorded_pg_journal () =
  let sut = Suts.Mini_pg.sut in
  let base =
    match Conferr.Engine.parse_default_config sut with
    | Ok base -> base
    | Error msg -> Alcotest.failf "postgres default config: %s" msg
  in
  let scenarios =
    Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create 1)
      ~faultload:Conferr.Campaign.paper_faultload sut base
  in
  let path = Filename.temp_file "conferr_render_test" ".jsonl" in
  ignore
    (Executor.run_from
       ~settings:
         { Executor.default_settings with campaign_seed = 1; journal_path = Some path }
       ~on_event:(fun _ -> ()) ~sut ~base ~scenarios ());
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' text)

let test_single_byte_verdicts () =
  let lines = recorded_pg_journal () in
  Alcotest.(check bool) "a full journal" true (List.length lines > 100);
  let structural = [| '"'; '}'; '\\'; '0'; ','; 'A'; ' ' |] in
  let checked = ref 0 in
  List.iteri
    (fun li line ->
      let check mutated =
        incr checked;
        let got = show_verdict (verdict mutated)
        and want = show_verdict (Oracle.classify_line mutated) in
        if got <> want then
          Alcotest.failf "line %d, mutated to %S: verdict %s, oracle %s" li mutated
            got want
      in
      check line;
      String.iteri
        (fun i c ->
          let others =
            List.sort_uniq compare
              [ Char.chr (Char.code c lxor 0x01); Char.chr (Char.code c lxor 0x20);
                structural.(i mod Array.length structural) ]
          in
          List.iter
            (fun c' ->
              if c' <> c then begin
                let b = Bytes.of_string line in
                Bytes.set b i c';
                check (Bytes.to_string b)
              end)
            others)
        line)
    lines;
  Alcotest.(check bool) "every position mutated" true (!checked > 100 * 300)

(* The CRC covers the entry bytes as written: a line in the journal's
   layout whose body another writer spaced out is valid when its CRC
   matches those bytes (the oracle, which hashed the re-serialized
   member, called it corrupt); with a CRC over the canonical body it
   still passes the canonical check. *)
let test_crc_covers_bytes_as_written () =
  let e =
    {
      Journal.scenario_id = "typo-0001"; class_name = "typo/name";
      description = "d"; seed = -7L; outcome = Outcome.Passed;
      elapsed_ms = 0.5; attempts = 1; votes = []; phase_ms = [];
    }
  in
  let canonical = Json.to_string (Journal.entry_to_json e) in
  let spaced = "{ " ^ String.sub canonical 1 (String.length canonical - 1) in
  let line body crc =
    Printf.sprintf {|{"v":2,"crc":"%s","entry":%s}|} (Conferr_exec.Crc32.to_hex crc) body
  in
  let as_written = line spaced (Conferr_exec.Crc32.string spaced) in
  Alcotest.(check string) "raw CRC over the written bytes: valid"
    (show_verdict (`Valid e)) (show_verdict (verdict as_written));
  Alcotest.(check string) "the oracle hashed the re-serialized member" "corrupt"
    (show_verdict (Oracle.classify_line as_written));
  let hashed_canonically = line spaced (Conferr_exec.Crc32.string canonical) in
  Alcotest.(check string) "canonical CRC: still valid"
    (show_verdict (`Valid e)) (show_verdict (verdict hashed_canonically))

(* Every byte string survives [to_string] then [of_string]: bytes
   above 0x7f are written as \u0080-\u00ff and read back as that byte,
   not as its UTF-8 encoding. *)
let prop_string_round_trip =
  QCheck2.Test.make ~count:2000 ~name:"json: a string of any bytes round-trips"
    ~print:String.escaped bytes (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') when s' = s -> true
      | Ok v -> QCheck2.Test.fail_reportf "read back %s" (Oracle.to_string v)
      | Error e -> QCheck2.Test.fail_reportf "unreadable: %s" e)

(* A journal entry holding non-ASCII bytes loads back unchanged and
   fscks clean, so a resume never re-runs it. *)
let test_non_ascii_entry () =
  let e =
    {
      Journal.scenario_id = "typo-0001"; class_name = "typo/value";
      description = "set 'client_encoding' to 'caf\xc3\xa9' (\xff)"; seed = 3L;
      outcome = Outcome.Startup_failure "invalid value \xc3\xa9"; elapsed_ms = 0.5;
      attempts = 1; votes = []; phase_ms = [];
    }
  in
  let path = Filename.temp_file "conferr_non_ascii" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Journal.open_append ~fresh:true path in
      Journal.append w e;
      Journal.close w;
      Alcotest.(check (list string)) "load returns the entry"
        [ Oracle.to_string (Journal.entry_to_json e) ]
        (List.map (fun e -> Oracle.to_string (Journal.entry_to_json e)) (Journal.load path));
      let r = Journal.fsck path in
      Alcotest.(check (pair int int)) "fsck: valid, corrupt" (1, 0) (r.valid, r.corrupt))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_encoder;
    Alcotest.test_case "json: integral numbers and -0" `Quick test_number_edges;
    QCheck_alcotest.to_alcotest prop_rendered_line;
    Alcotest.test_case "journal: single-byte changes get the oracle's verdict"
      `Slow test_single_byte_verdicts;
    Alcotest.test_case "journal: the CRC covers the entry bytes as written" `Quick
      test_crc_covers_bytes_as_written;
    QCheck_alcotest.to_alcotest prop_string_round_trip;
    Alcotest.test_case "journal: a non-ASCII entry loads and fscks clean" `Quick
      test_non_ascii_entry;
  ]
