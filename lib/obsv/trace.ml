type ev = {
  id : string;
  class_name : string;
  wall_start : float;
  domain : int;
  marks : Clock.mark list;
}

(* One ring per worker domain: the owning domain is the only writer
   after registration, so appends skip the registry lock. *)
type ring = { buf : ev option array; mutable n : int; mutable dropped : int }

type t = { lock : Mutex.t; capacity : int; rings : (int, ring) Hashtbl.t }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { lock = Mutex.create (); capacity; rings = Hashtbl.create 8 }

let ring_for t domain =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.rings domain with
    | Some r -> r
    | None ->
      let r = { buf = Array.make t.capacity None; n = 0; dropped = 0 } in
      Hashtbl.add t.rings domain r;
      r
  in
  Mutex.unlock t.lock;
  r

let record t ~id ~class_name clock =
  let domain = (Domain.self () :> int) in
  let r = ring_for t domain in
  if r.n < Array.length r.buf then (
    r.buf.(r.n) <-
      Some { id; class_name; wall_start = Clock.started_s clock; domain; marks = Clock.marks clock };
    r.n <- r.n + 1)
  else r.dropped <- r.dropped + 1

let fold_rings t f init =
  Mutex.lock t.lock;
  let acc = Hashtbl.fold (fun _ r acc -> f acc r) t.rings init in
  Mutex.unlock t.lock;
  acc

let dropped t = fold_rings t (fun acc r -> acc + r.dropped) 0

let events t =
  fold_rings t
    (fun acc r ->
      let rec take i acc = if i < 0 then acc else take (i - 1) (Option.get r.buf.(i) :: acc) in
      take (r.n - 1) acc)
    []
  |> List.sort (fun a b -> compare (a.id, a.class_name) (b.id, b.class_name))

let us s = Float.round (s *. 1e6)

let wall_field mask ~start_s ~dur_s ~domain =
  if mask then "-" else Printf.sprintf "%.0f+%.0f@%d" (us start_s) (us dur_s) domain

(* Logical timeline: scenario k owns [k*1000, (k+1)*1000) µs, its j-th
   phase mark [k*1000 + j*10, +10).  All real timing lives in args.wall. *)
let chrome_event ~name ~cat ~ts ~dur ~span ~parent ~wall =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("cat", Json.Str cat);
       ("ph", Json.Str "X");
       ("ts", Json.Num ts);
       ("dur", Json.Num dur);
       ("pid", Json.Num 0.0);
       ("tid", Json.Num 0.0);
     ]
    @ [
        ( "args",
          Json.Obj
            ([ ("span", Json.Str span) ]
            @ (match parent with Some p -> [ ("parent", Json.Str p) ] | None -> [])
            @ [ ("wall", Json.Str wall) ]) );
      ])

let chrome ?(mask_wall = false) t =
  let evs = events t in
  let trace_events =
    List.concat (List.mapi
      (fun k ev ->
        let base = Float.of_int (k * 1000) in
        let span = Span.id ev.id in
        let wall_end =
          List.fold_left (fun acc (m : Clock.mark) -> Float.max acc (m.start_s +. m.dur_s)) ev.wall_start ev.marks
        in
        let scenario =
          chrome_event ~name:ev.id ~cat:ev.class_name ~ts:base ~dur:1000.0 ~span ~parent:None
            ~wall:(wall_field mask_wall ~start_s:ev.wall_start ~dur_s:(wall_end -. ev.wall_start) ~domain:ev.domain)
        in
        let phases =
          List.map
            (fun (m : Clock.mark) ->
              let label = Span.label m.phase in
              chrome_event ~name:label ~cat:ev.class_name
                ~ts:(base +. Float.of_int (m.seq * 10))
                ~dur:10.0
                ~span:(Span.id (Printf.sprintf "%s/%s#%d" ev.id label m.seq))
                ~parent:(Some span)
                ~wall:(wall_field mask_wall ~start_s:m.start_s ~dur_s:m.dur_s ~domain:ev.domain))
            ev.marks
        in
        scenario :: phases)
      evs)
  in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.Arr trace_events); ("displayTimeUnit", Json.Str "ms") ])

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (chrome t);
      output_char oc '\n')
