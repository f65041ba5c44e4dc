type kind = Counter | Gauge | Histogram

type hist = { bounds : float array; counts : float array; mutable sum : float; mutable count : float }

type cell = Scalar of float ref | Hist of hist

type fam = {
  kind : kind;
  mutable help : string option;
  buckets : float list;  (* histograms only *)
  cells : ((string * string) list, cell) Hashtbl.t;
}

type t = { lock : Mutex.t; fams : (string, fam) Hashtbl.t }

let create () = { lock = Mutex.create (); fams = Hashtbl.create 32 }

let default_ms_buckets = List.init 19 (fun i -> 0.0625 *. Float.of_int (1 lsl i))

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let valid_name name =
  name <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' || c = ':')
       name

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

(* Callers hold the lock. *)
let get_fam t kind ?(buckets = default_ms_buckets) name =
  match Hashtbl.find_opt t.fams name with
  | Some f ->
    if f.kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name f.kind) (kind_name kind));
    f
  | None ->
    if not (valid_name name) then invalid_arg ("Metrics: invalid metric name " ^ name);
    if kind = Histogram && not (strictly_increasing buckets && buckets <> []) then
      invalid_arg ("Metrics: buckets for " ^ name ^ " must be non-empty and strictly increasing");
    let f = { kind; help = None; buckets; cells = Hashtbl.create 8 } in
    Hashtbl.add t.fams name f;
    f

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
    Mutex.unlock t.lock;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Mutex.unlock t.lock;
    Printexc.raise_with_backtrace e bt

let declare ?help ?buckets t kind name =
  with_lock t (fun () ->
      let f = get_fam t kind ?buckets name in
      match help with Some _ -> f.help <- help | None -> ())

(* Hot updates go through handles, which sort their labels once. *)
let norm_labels labels = List.sort compare labels

let scalar_cell f labels =
  match Hashtbl.find_opt f.cells labels with
  | Some (Scalar r) -> r
  | Some (Hist _) -> assert false
  | None ->
    let r = ref 0.0 in
    Hashtbl.add f.cells labels (Scalar r);
    r

let hist_cell f labels =
  match Hashtbl.find_opt f.cells labels with
  | Some (Hist h) -> h
  | Some (Scalar _) -> assert false
  | None ->
    let bounds = Array.of_list f.buckets in
    let h = { bounds; counts = Array.make (Array.length bounds) 0.0; sum = 0.0; count = 0.0 } in
    Hashtbl.add f.cells labels (Hist h);
    h

(* A handle is a resolved cell and the registry lock that guards it: an
   update through it looks nothing up. *)
type 'cell handle = { guard : Mutex.t; metric : string; cell : 'cell }
type counter = float ref handle
type histogram = hist handle

let resolve kind cell ?(labels = []) t name =
  with_lock t (fun () ->
      { guard = t.lock; metric = name; cell = cell (get_fam t kind name) (norm_labels labels) })

let counter ?labels t name = resolve Counter scalar_cell ?labels t name
let histogram ?labels t name = resolve Histogram hist_cell ?labels t name

let add c by =
  if by < 0.0 then invalid_arg ("Metrics: negative increment of counter " ^ c.metric);
  Mutex.lock c.guard;
  c.cell := !(c.cell) +. by;
  Mutex.unlock c.guard

let record { guard; cell = h; _ } v =
  Mutex.lock guard;
  (* Buckets are le-inclusive: the first bound >= v takes the hit. *)
  let n = Array.length h.bounds in
  let rec place i = if i < n then if v <= h.bounds.(i) then h.counts.(i) <- h.counts.(i) +. 1.0 else place (i + 1) in
  place 0;
  h.sum <- h.sum +. v;
  h.count <- h.count +. 1.0;
  Mutex.unlock guard

let inc ?(by = 1.0) ?labels t name = add (counter ?labels t name) by

let set ?(labels = []) t name v =
  with_lock t (fun () ->
      let f = get_fam t Gauge name in
      let r = scalar_cell f (norm_labels labels) in
      r := v)

(* Lock-free reads: the list only grows, by compare-and-set, and a key
   resolved twice by racing domains names the same cell. *)
type ('k, 'h) handles = { make : 'k -> 'h; made : ('k * 'h) list Atomic.t }

let handles make = { make; made = Atomic.make [] }

let rec handle hs key =
  let seen = Atomic.get hs.made in
  match List.assoc key seen with
  | h -> h
  | exception Not_found ->
    let h = hs.make key in
    if Atomic.compare_and_set hs.made seen ((key, h) :: seen) then h else handle hs key

let value ?(labels = []) t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.fams name with
      | None -> None
      | Some f -> (
        match Hashtbl.find_opt f.cells (norm_labels labels) with
        | Some (Scalar r) -> Some !r
        | Some (Hist _) | None -> None))

let family t name =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.fams name with
      | None -> []
      | Some f ->
        Hashtbl.fold
          (fun labels cell acc -> match cell with Scalar r -> (labels, !r) :: acc | Hist _ -> acc)
          f.cells []
        |> List.sort compare)

type sample = {
  sample_name : string;
  labels : (string * string) list;
  value : float;
}

(* Exact decimal rendering: integers print bare, everything else with
   enough digits that [float_of_string] recovers the same float. *)
let fmt v =
  if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_nan v then "NaN"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let sorted_fams t =
  Hashtbl.fold (fun name f acc -> (name, f) :: acc) t.fams [] |> List.sort compare

let sorted_cells f = Hashtbl.fold (fun l c acc -> (l, c) :: acc) f.cells [] |> List.sort compare

let samples_of_cell name labels cell =
  match cell with
  | Scalar r -> [ { sample_name = name; labels; value = !r } ]
  | Hist h ->
    let cum = ref 0.0 in
    let buckets =
      Array.to_list
        (Array.mapi
           (fun i bound ->
             cum := !cum +. h.counts.(i);
             { sample_name = name ^ "_bucket"; labels = norm_labels (("le", fmt bound) :: labels); value = !cum })
           h.bounds)
    in
    buckets
    @ [
        { sample_name = name ^ "_bucket"; labels = norm_labels (("le", "+Inf") :: labels); value = h.count };
        { sample_name = name ^ "_sum"; labels; value = h.sum };
        { sample_name = name ^ "_count"; labels; value = h.count };
      ]

let samples t =
  with_lock t (fun () ->
      List.concat_map
        (fun (name, f) ->
          List.concat_map (fun (labels, cell) -> samples_of_cell name labels cell) (sorted_cells f))
        (sorted_fams t))

let escape_label_value v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let sample_line s =
  let labels =
    match s.labels with
    | [] -> ""
    | ls ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) ls)
      ^ "}"
  in
  Printf.sprintf "%s%s %s" s.sample_name labels (fmt s.value)

let expose t =
  let b = Buffer.create 4096 in
  with_lock t (fun () ->
      List.iter
        (fun (name, f) ->
          (match f.help with
          | Some h ->
            Buffer.add_string b
              (Printf.sprintf "# HELP %s %s\n" name (String.map (fun c -> if c = '\n' then ' ' else c) h))
          | None -> ());
          Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name (kind_name f.kind));
          List.iter
            (fun (labels, cell) ->
              List.iter
                (fun s ->
                  Buffer.add_string b (sample_line s);
                  Buffer.add_char b '\n')
                (samples_of_cell name labels cell))
            (sorted_cells f))
        (sorted_fams t));
  Buffer.contents b

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (expose t))

(* ---- parsing the exposition format back ---- *)

let parse_value s =
  match String.lowercase_ascii s with
  | "+inf" | "inf" -> Some Float.infinity
  | "-inf" -> Some Float.neg_infinity
  | "nan" -> Some Float.nan
  | _ -> float_of_string_opt s

let parse_labels line i0 =
  (* [i0] points just past '{'.  Returns (labels, index past '}'). *)
  let n = String.length line in
  let rec loop i acc =
    if i >= n then Error "unterminated label set"
    else if line.[i] = '}' then Ok (List.rev acc, i + 1)
    else
      let i = if line.[i] = ',' then i + 1 else i in
      match String.index_from_opt line i '=' with
      | None -> Error "label without '='"
      | Some eq ->
        let key = String.sub line i (eq - i) in
        if eq + 1 >= n || line.[eq + 1] <> '"' then Error "label value not quoted"
        else
          let b = Buffer.create 16 in
          let rec scan j =
            if j >= n then Error "unterminated label value"
            else
              match line.[j] with
              | '"' -> Ok (j + 1)
              | '\\' when j + 1 < n ->
                (match line.[j + 1] with
                | 'n' -> Buffer.add_char b '\n'
                | c -> Buffer.add_char b c);
                scan (j + 2)
              | c ->
                Buffer.add_char b c;
                scan (j + 1)
          in
          (match scan (eq + 2) with
          | Error e -> Error e
          | Ok j -> loop j ((key, Buffer.contents b) :: acc))
  in
  loop i0 []

let parse_line line =
  match String.index_opt line '{' with
  | Some brace ->
    let name = String.sub line 0 brace in
    (match parse_labels line (brace + 1) with
    | Error e -> Error e
    | Ok (labels, after) ->
      let rest = String.trim (String.sub line after (String.length line - after)) in
      (match parse_value rest with
      | Some v -> Ok { sample_name = name; labels = norm_labels labels; value = v }
      | None -> Error ("bad value " ^ rest)))
  | None -> (
    match String.index_opt line ' ' with
    | None -> Error "missing value"
    | Some sp ->
      let name = String.sub line 0 sp in
      let rest = String.trim (String.sub line sp (String.length line - sp)) in
      (match parse_value rest with
      | Some v -> Ok { sample_name = name; labels = []; value = v }
      | None -> Error ("bad value " ^ rest)))

let parse_exposition text =
  let lines = String.split_on_char '\n' text in
  let rec loop n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then loop (n + 1) acc rest
      else (
        match parse_line line with
        | Ok s -> loop (n + 1) (s :: acc) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  loop 1 [] lines
