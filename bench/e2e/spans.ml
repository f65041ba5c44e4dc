(* The benchmark's span recorder.  Spans are kept in memory — name,
   start, end, parent, campaign id — and written out as Chrome trace JSON
   when the run ends; they are recorded by the benchmark around its calls
   into each layer, not inside the program. *)

module Json = Conferr_obsv.Json

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  cid : string;  (** the campaign the span belongs to; "" for none *)
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;  (* open spans, innermost first *)
  mutable next_id : int;
}

let create () = { spans = []; stack = []; next_id = 1 }
let dur_ns s = Int64.sub s.stop_ns s.start_ns

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let current t = match t.stack with p :: _ -> p | [] -> 0

(* A span with timestamps measured elsewhere (a child process, a daemon
   campaign), under the innermost open span unless [parent] is given. *)
let add t ?parent ?(cid = "") name start_ns stop_ns =
  let id = fresh_id t in
  let parent = Option.value parent ~default:(current t) in
  t.spans <- { id; parent; name; cid; start_ns; stop_ns } :: t.spans;
  id

let with_span t ?(cid = "") name f =
  let id = fresh_id t in
  let parent = current t in
  t.stack <- id :: t.stack;
  let start_ns = Proc.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let stop_ns = Proc.now_ns () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; parent; name; cid; start_ns; stop_ns } :: t.spans)
    f

(* Recording cost of one span, measured on empty spans. *)
let cost_ns () =
  let t = create () in
  let n = 20_000 in
  let t0 = Proc.now_ns () in
  for _ = 1 to n do
    with_span t "probe" ignore
  done;
  Int64.to_float (Int64.sub (Proc.now_ns ()) t0) /. float_of_int n

type layer = {
  name : string;
  calls : int;
  total_ms : float;
  self_ms : float;  (** total minus the time its child spans cover *)
  durs_ms : float list;
}

(* The spans inside the first span named [root], that one included. *)
let subtree t root =
  let spans = List.rev t.spans in
  match List.find_opt (fun (s : span) -> s.name = root) spans with
  | None -> []
  | Some r ->
    let parent_of = Hashtbl.create 1024 in
    List.iter (fun (s : span) -> Hashtbl.replace parent_of s.id s.parent) spans;
    let parent id = Option.value (Hashtbl.find_opt parent_of id) ~default:0 in
    let rec inside id = id = r.id || (id <> 0 && inside (parent id)) in
    List.filter (fun (s : span) -> inside s.id) spans

(* The spans inside [root], aggregated by name in order of first
   appearance. *)
let layers t ~root =
  let spans = subtree t root in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0L in
      Hashtbl.replace child_ns s.parent (Int64.add prev (dur_ns s)))
    spans;
  let order = ref [] and acc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = Int64.to_float (dur_ns s) /. 1e6 in
      let children = Option.value (Hashtbl.find_opt child_ns s.id) ~default:0L in
      let self = d -. (Int64.to_float children /. 1e6) in
      match Hashtbl.find_opt acc s.name with
      | None ->
        order := s.name :: !order;
        Hashtbl.replace acc s.name
          { name = s.name; calls = 1; total_ms = d; self_ms = self; durs_ms = [ d ] }
      | Some l ->
        Hashtbl.replace acc s.name
          {
            l with
            calls = l.calls + 1;
            total_ms = l.total_ms +. d;
            self_ms = l.self_ms +. self;
            durs_ms = d :: l.durs_ms;
          })
    spans;
  List.rev_map (Hashtbl.find acc) !order

let find layers name = List.find_opt (fun (l : layer) -> l.name = name) layers

(* Each campaign id gets its own track, since the campaigns of an open
   loop overlap in time and a track must hold nested spans only. *)
let write_chrome t path =
  let spans = List.rev t.spans in
  let t0 = List.fold_left (fun m s -> min m s.start_ns) Int64.max_int spans in
  let us ns = Int64.to_float (Int64.sub ns t0) /. 1e3 in
  let tids = Hashtbl.create 64 in
  let tid cid =
    match Hashtbl.find_opt tids cid with
    | Some n -> n
    | None ->
      let n = Hashtbl.length tids in
      Hashtbl.add tids cid n;
      n
  in
  ignore (tid "" (* track 0: spans of no campaign *));
  let event (s : span) =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", Json.Num (us s.start_ns));
        ("dur", Json.Num (Int64.to_float (dur_ns s) /. 1e3));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int (tid s.cid)));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("cid", Json.Str s.cid);
            ] );
      ]
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.Arr (List.map event spans));
                ("displayTimeUnit", Json.Str "ms");
              ]));
      output_char oc '\n')
