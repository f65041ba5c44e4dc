module Json = Conferr_obsv.Json
module Diskchaos = Conferr_harden.Diskchaos

let manifest_name = "MANIFEST.json"
let default_segment_bytes = 1 lsl 20

type sealed = { name : string; lines : int; bytes : int; crc : int }

type manifest = {
  segment_bytes : int;
  sealed : sealed list;
  open_segments : string list;
}

(* ---- layout helpers ---- *)

let seg_prefix = "seg-"
let seg_suffix = ".jsonl"
let seg_name i = Printf.sprintf "seg-%06d.jsonl" i

let is_seg_name n =
  String.length n > String.length seg_prefix + String.length seg_suffix
  && String.starts_with ~prefix:seg_prefix n
  && String.ends_with ~suffix:seg_suffix n

let seg_index n =
  if not (is_seg_name n) then None
  else
    int_of_string_opt
      (String.sub n (String.length seg_prefix)
         (String.length n - String.length seg_prefix - String.length seg_suffix))

let segment_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let segs = List.filter is_seg_name (Array.to_list names) in
    List.sort compare segs

let tmp_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    List.filter
      (fun n -> String.ends_with ~suffix:".tmp" n)
      (Array.to_list names)

let is_store path =
  Sys.file_exists path
  && Sys.is_directory path
  && (Sys.file_exists (Filename.concat path manifest_name)
     || segment_files path <> [])

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

(* ---- manifest codec ---- *)

let manifest_to_json m =
  Json.Obj
    [
      ("v", Json.Num 3.0);
      ("segment_bytes", Json.Num (float_of_int m.segment_bytes));
      ( "sealed",
        Json.Arr
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("lines", Json.Num (float_of_int s.lines));
                   ("bytes", Json.Num (float_of_int s.bytes));
                   ("crc", Json.Str (Crc32.to_hex s.crc));
                 ])
             m.sealed) );
      ("open", Json.Arr (List.map (fun n -> Json.Str n) m.open_segments));
    ]

let sealed_of_json j =
  match
    ( Option.bind (Json.member "name" j) Json.str,
      Option.bind (Json.member "lines" j) Json.num,
      Option.bind (Json.member "bytes" j) Json.num,
      Option.bind (Option.bind (Json.member "crc" j) Json.str) Crc32.of_hex )
  with
  | Some name, Some lines, Some bytes, Some crc ->
    Some { name; lines = int_of_float lines; bytes = int_of_float bytes; crc }
  | _ -> None

let manifest_of_json j =
  match
    ( Option.bind (Json.member "v" j) Json.num,
      Option.bind (Json.member "segment_bytes" j) Json.num,
      Json.member "sealed" j,
      Json.member "open" j )
  with
  | Some v, Some sb, Some (Json.Arr sealed_js), Some opens_j when v = 3.0 ->
    let sealed = List.filter_map sealed_of_json sealed_js in
    let opens = Option.value (Json.str_list opens_j) ~default:[] in
    if List.length sealed <> List.length sealed_js then None
    else
      Some
        { segment_bytes = int_of_float sb; sealed; open_segments = opens }
  | _ -> None

let load_manifest dir =
  let path = Filename.concat dir manifest_name in
  if not (Sys.file_exists path) then None
  else
    match Json.of_string (read_file path) with
    | Error _ -> None
    | Ok j -> manifest_of_json j

let write_manifest (io : Diskchaos.io) dir m =
  let path = Filename.concat dir manifest_name in
  let tmp = path ^ ".tmp" in
  let f = io.open_file ~append:false tmp in
  Fun.protect
    ~finally:(fun () -> f.close ())
    (fun () ->
      f.write (Json.to_string (manifest_to_json m));
      f.write "\n";
      f.flush ());
  io.rename tmp path

let seal_of_file dir name =
  let data = read_file (Filename.concat dir name) in
  {
    name;
    lines = count_lines data;
    bytes = String.length data;
    crc = Crc32.string data;
  }

(* ---- reading ---- *)

type standing = Sealed_as of sealed | Open | Orphan

let segments dir =
  let on_disk = segment_files dir in
  match load_manifest dir with
  | None -> List.map (fun n -> (n, Open)) on_disk
  | Some m ->
    let sealed = List.map (fun s -> (s.name, Sealed_as s)) m.sealed in
    let opens = List.map (fun n -> (n, Open)) m.open_segments in
    let listed = List.map fst sealed @ List.map fst opens in
    let orphans =
      List.filter (fun n -> not (List.mem n listed)) on_disk
      |> List.map (fun n -> (n, Orphan))
    in
    sealed @ opens @ orphans

let logical_segments dir =
  List.filter_map
    (fun (n, standing) -> if standing = Orphan then None else Some n)
    (segments dir)

let read_text dir =
  String.concat ""
    (List.map (fun n -> read_file (Filename.concat dir n)) (logical_segments dir))

let read_lines dir =
  let split text =
    match String.split_on_char '\n' text with
    | [] -> []
    | parts -> (
      match List.rev parts with
      | "" :: rest -> List.rev rest
      | _ -> parts)
  in
  List.concat_map
    (fun n -> split (read_file (Filename.concat dir n)))
    (logical_segments dir)

(* ---- writing ---- *)

type seg_writer = {
  wlock : Mutex.t;
  mutable file : Diskchaos.file;
  mutable seg : string;
  mutable written : int;
}

type t = {
  dir : string;
  io : Diskchaos.io;
  slock : Mutex.t;  (** manifest + writer table + segment counter *)
  writers : (int, seg_writer) Hashtbl.t;
  mutable man : manifest;
  mutable next_seg : int;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let mkdir_p (io : Diskchaos.io) dir =
  let rec up d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      up (Filename.dirname d);
      io.mkdir d
    end
  in
  up dir

let next_index dir =
  1
  + List.fold_left
      (fun acc n -> match seg_index n with Some i -> max acc i | None -> acc)
      0 (segment_files dir)

let create ?(io = Diskchaos.real) ?(fresh = false) ?segment_bytes dir =
  mkdir_p io dir;
  if fresh then begin
    List.iter (fun n -> io.remove (Filename.concat dir n)) (segment_files dir);
    List.iter (fun n -> io.remove (Filename.concat dir n)) (tmp_files dir);
    io.remove (Filename.concat dir manifest_name)
  end;
  let prior = if fresh then None else load_manifest dir in
  let sb =
    match (segment_bytes, prior) with
    | Some sb, _ -> sb
    | None, Some m -> m.segment_bytes
    | None, None -> default_segment_bytes
  in
  let man =
    match prior with
    | Some m -> { m with segment_bytes = sb }
    | None ->
      (* No readable manifest: adopt whatever segments are on disk as
         open, so a store whose manifest was destroyed is still
         resumable with zero data loss. *)
      let adopted = if fresh then [] else segment_files dir in
      { segment_bytes = sb; sealed = []; open_segments = adopted }
  in
  (* Seal what a previous writer left open, in its open order, before
     any new segment exists: fresh appends go to segments numbered (and
     sealed) after it, so the logical order — sealed then open — keeps
     the durable prefix ahead of resumed entries. *)
  let man =
    {
      man with
      sealed = man.sealed @ List.map (seal_of_file dir) man.open_segments;
      open_segments = [];
    }
  in
  write_manifest io dir man;
  {
    dir;
    io;
    slock = Mutex.create ();
    writers = Hashtbl.create 8;
    man;
    next_seg = next_index dir;
  }

(* Caller holds [slock].  The manifest lists the new segment before its
   file exists: a crash between the two leaves a listed-but-missing
   segment, which reads as empty. *)
let open_segment t =
  let name = seg_name t.next_seg in
  t.next_seg <- t.next_seg + 1;
  t.man <- { t.man with open_segments = t.man.open_segments @ [ name ] };
  write_manifest t.io t.dir t.man;
  let file = t.io.open_file ~append:true (Filename.concat t.dir name) in
  (name, file)

let writer_for t =
  let key = (Domain.self () :> int) in
  locked t.slock (fun () ->
      match Hashtbl.find_opt t.writers key with
      | Some w -> w
      | None ->
        let seg, file = open_segment t in
        let w = { wlock = Mutex.create (); file; seg; written = 0 } in
        Hashtbl.add t.writers key w;
        w)

(* Caller holds [w.wlock].  Seal the full segment and open the next
   one; a single manifest write covers both transitions. *)
let rotate t w =
  w.file.flush ();
  w.file.close ();
  let sealed = seal_of_file t.dir w.seg in
  locked t.slock (fun () ->
      t.man <-
        {
          t.man with
          sealed = t.man.sealed @ [ sealed ];
          open_segments =
            List.filter (fun n -> n <> w.seg) t.man.open_segments;
        };
      let seg, file = open_segment t in
      w.seg <- seg;
      w.file <- file;
      w.written <- 0)

let append_line t line =
  let w = writer_for t in
  locked w.wlock (fun () ->
      w.file.write line;
      w.file.flush ();
      w.written <- w.written + String.length line;
      if w.written >= t.man.segment_bytes then rotate t w)

let close t =
  let ws =
    locked t.slock (fun () ->
        let ws = Hashtbl.fold (fun _ w acc -> w :: acc) t.writers [] in
        Hashtbl.reset t.writers;
        ws)
  in
  let sealed_now =
    List.map
      (fun w ->
        locked w.wlock (fun () ->
            w.file.close ();
            w.seg))
      ws
  in
  locked t.slock (fun () ->
      let sealing, still_open =
        List.partition (fun n -> List.mem n sealed_now) t.man.open_segments
      in
      if sealing <> [] then begin
        t.man <-
          {
            t.man with
            sealed = t.man.sealed @ List.map (seal_of_file t.dir) sealing;
            open_segments = still_open;
          };
        write_manifest t.io t.dir t.man
      end)

let checkpoint ?(io = Diskchaos.real) ?segment_bytes dir lines =
  mkdir_p io dir;
  let sb =
    match (segment_bytes, load_manifest dir) with
    | Some sb, _ -> sb
    | None, Some m -> m.segment_bytes
    | None, None -> default_segment_bytes
  in
  let name = seg_name (next_index dir) in
  let path = Filename.concat dir name in
  let tmp = path ^ ".tmp" in
  let f = io.open_file ~append:false tmp in
  Fun.protect
    ~finally:(fun () -> f.close ())
    (fun () ->
      List.iter f.write lines;
      f.flush ());
  io.rename tmp path;
  (* The atomic cutover: before this rename the fresh segment is an
     ignored orphan, after it the old segments are. *)
  write_manifest io dir
    { segment_bytes = sb; sealed = [ seal_of_file dir name ]; open_segments = [] };
  List.iter
    (fun n -> if n <> name then io.remove (Filename.concat dir n))
    (segment_files dir);
  List.iter (fun n -> io.remove (Filename.concat dir n)) (tmp_files dir)

(* ---- repair primitives ---- *)

let truncate_segment ?(io = Diskchaos.real) ~dir name n =
  let path = Filename.concat dir name in
  let data = read_file path in
  let keep = String.sub data 0 (min n (String.length data)) in
  let tmp = path ^ ".tmp" in
  let f = io.open_file ~append:false tmp in
  Fun.protect
    ~finally:(fun () -> f.close ())
    (fun () ->
      f.write keep;
      f.flush ());
  io.rename tmp path

let reseal ?(io = Diskchaos.real) ?segment_bytes dir =
  let sb =
    match (segment_bytes, load_manifest dir) with
    | Some sb, _ -> sb
    | None, Some m -> m.segment_bytes
    | None, None -> default_segment_bytes
  in
  let keep, orphans =
    List.partition (fun (_, standing) -> standing <> Orphan) (segments dir)
  in
  List.iter (fun (n, _) -> io.remove (Filename.concat dir n)) orphans;
  List.iter (fun n -> io.remove (Filename.concat dir n)) (tmp_files dir);
  let sealed =
    List.filter_map
      (fun (n, _) ->
        if Sys.file_exists (Filename.concat dir n) then
          Some (seal_of_file dir n)
        else None)
      keep
  in
  write_manifest io dir { segment_bytes = sb; sealed; open_segments = [] }
