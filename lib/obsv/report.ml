type row = {
  id : string;
  class_name : string;
  outcome : string;
  detail : string;
  signature : string;
  elapsed_ms : float;
  attempts : int;
  flaky : bool;
  phase_ms : (string * float) list;
}

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let fnum v = Printf.sprintf "%g" v

type tone = Good | Series | Serious | Critical | Muted

let tone_class = function
  | Good -> "o-startup"
  | Series -> "o-functional"
  | Serious -> "o-ignored"
  | Critical -> "o-crashed"
  | Muted -> "o-na"

(* Outcome identity: fixed order, status colors reserved for state
   (startup = detected cleanly, crashed = took the harness down),
   series blue for functional detection, muted for n/a. *)
let outcome_order = [ "startup"; "functional"; "ignored"; "crashed"; "n/a" ]

let outcome_class o =
  tone_class
    (match o with
    | "startup" -> Good
    | "functional" -> Series
    | "ignored" -> Serious
    | "crashed" -> Critical
    | _ -> Muted)

let count pred rows = List.length (List.filter pred rows)

let distinct_signatures rows =
  List.length (List.sort_uniq compare (List.map (fun r -> r.signature) rows))

(* ---- SVG helpers (no scripts: charts are static markup) ---- *)

let svg_bars ?(width = 640) ?(height = 150) (data : (string * float) list) =
  let n = List.length data in
  let vmax = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 data in
  if n = 0 || vmax <= 0.0 then "<p class=\"muted\">no data</p>"
  else begin
    let top = 16 and bottom = 18 in
    let plot_h = height - top - bottom in
    let bw = Float.of_int (width - (2 * (n - 1))) /. Float.of_int n in
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf
         "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">" width height width
         height);
    (* recessive gridline at the max level *)
    Buffer.add_string b
      (Printf.sprintf "<line x1=\"0\" y1=\"%d\" x2=\"%d\" y2=\"%d\" class=\"grid\"/>" top width top);
    let label_every = max 1 (n / 8) in
    List.iteri
      (fun i (label, v) ->
        let x = Float.of_int i *. (bw +. 2.0) in
        let h = Float.max (if v > 0.0 then 2.0 else 0.0) (v /. vmax *. Float.of_int plot_h) in
        let y = Float.of_int (top + plot_h) -. h in
        if v > 0.0 then
          Buffer.add_string b
            (Printf.sprintf
               "<rect x=\"%.1f\" y=\"%.1f\" width=\"%.1f\" height=\"%.1f\" rx=\"2\" class=\"bar\"/>"
               x y bw h);
        if v = vmax then
          Buffer.add_string b
            (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" class=\"val\">%s</text>"
               (x +. (bw /. 2.0)) (y -. 4.0) (fnum v));
        if i mod label_every = 0 then
          Buffer.add_string b
            (Printf.sprintf "<text x=\"%.1f\" y=\"%d\" class=\"tick\">%s</text>"
               (x +. (bw /. 2.0)) (height - 4) (esc label)))
      data;
    Buffer.add_string b "</svg>";
    Buffer.contents b
  end

let svg_frontier ?(width = 640) ?(height = 150) (points : (int * int) list) =
  match points with
  | [] -> "<p class=\"muted\">no data</p>"
  | _ ->
    let xmax = List.fold_left (fun acc (x, _) -> max acc x) 1 points in
    let ymax = List.fold_left (fun acc (_, y) -> max acc y) 1 points in
    let top = 16 and bottom = 18 in
    let plot_h = Float.of_int (height - top - bottom) in
    let px x = Float.of_int x /. Float.of_int xmax *. Float.of_int (width - 40) in
    let py y = Float.of_int (top) +. plot_h -. (Float.of_int y /. Float.of_int ymax *. plot_h) in
    let pts =
      String.concat " " (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) points)
    in
    let b = Buffer.create 512 in
    Buffer.add_string b
      (Printf.sprintf "<svg viewBox=\"0 0 %d %d\" width=\"%d\" height=\"%d\" role=\"img\">" width
         height width height);
    Buffer.add_string b
      (Printf.sprintf "<line x1=\"0\" y1=\"%d\" x2=\"%d\" y2=\"%d\" class=\"grid\"/>" top width top);
    Buffer.add_string b
      (Printf.sprintf
         "<polyline points=\"%s\" fill=\"none\" class=\"line\" stroke-width=\"2\"/>" pts);
    let lx, ly = (px xmax, py ymax) in
    Buffer.add_string b
      (Printf.sprintf "<text x=\"%.1f\" y=\"%.1f\" class=\"val\">%d</text>" (lx +. 6.0) ly ymax);
    Buffer.add_string b
      (Printf.sprintf "<text x=\"4\" y=\"%d\" class=\"tick\" text-anchor=\"start\">scenario %d</text>"
         (height - 4) xmax);
    Buffer.add_string b "</svg>";
    Buffer.contents b

(* Log-2 latency buckets shared with Metrics; trim empty tails for display. *)
let bucketize values =
  let bounds = Metrics.default_ms_buckets in
  let counts = Array.make (List.length bounds + 1) 0 in
  List.iter
    (fun v ->
      let rec place i = function
        | [] -> counts.(i) <- counts.(i) + 1
        | bound :: rest -> if v <= bound then counts.(i) <- counts.(i) + 1 else place (i + 1) rest
      in
      place 0 bounds)
    values;
  let labeled =
    List.mapi (fun i bound -> (Printf.sprintf "\xe2\x89\xa4%s" (fnum bound), Float.of_int counts.(i))) bounds
    @ [ (">16s", Float.of_int counts.(List.length bounds)) ]
  in
  (* keep the contiguous run from the first to the last non-empty bucket *)
  let arr = Array.of_list labeled in
  let n = Array.length arr in
  let first = ref n and last = ref (-1) in
  Array.iteri (fun i (_, v) -> if v > 0.0 then (if !first = n then first := i; last := i)) arr;
  if !last < 0 then [] else Array.to_list (Array.sub arr !first (!last - !first + 1))

(* ---- sections ---- *)

let tile label value sub =
  Printf.sprintf
    "<div class=\"tile\"><div class=\"tile-value\">%s</div><div class=\"tile-label\">%s</div>%s</div>"
    value (esc label)
    (if sub = "" then "" else Printf.sprintf "<div class=\"tile-sub\">%s</div>" (esc sub))

let legend =
  let item o name =
    Printf.sprintf "<span class=\"key\"><span class=\"swatch %s\"></span>%s</span>" (outcome_class o)
      name
  in
  "<p class=\"legend\">"
  ^ String.concat ""
      [
        item "startup" "startup detection";
        item "functional" "functional detection";
        item "ignored" "ignored";
        item "crashed" "crashed";
        item "n/a" "not applicable";
      ]
  ^ "</p>"

let stacked_bar counts total =
  if total = 0 then ""
  else
    let seg o =
      let c = List.assoc o counts in
      if c = 0 then ""
      else
        Printf.sprintf
          "<span class=\"seg %s\" style=\"flex-grow:%d\" title=\"%s: %d\"></span>" (outcome_class o)
          c (esc o) c
    in
    "<div class=\"stack\">" ^ String.concat "" (List.map seg outcome_order) ^ "</div>"

let class_table rows =
  let classes = List.sort_uniq compare (List.map (fun r -> r.class_name) rows) in
  let row_html cls =
    let mine = List.filter (fun r -> r.class_name = cls) rows in
    let counts = List.map (fun o -> (o, count (fun r -> r.outcome = o) mine)) outcome_order in
    let total = List.length mine in
    let na = List.assoc "n/a" counts in
    let detected =
      List.assoc "startup" counts + List.assoc "functional" counts + List.assoc "crashed" counts
    in
    let rate = if total - na = 0 then 0.0 else 100.0 *. Float.of_int detected /. Float.of_int (total - na) in
    Printf.sprintf
      "<tr><td class=\"mono\">%s</td><td class=\"num\">%d</td>%s<td class=\"num\">%.0f%%</td><td class=\"barcell\">%s</td></tr>"
      (esc cls) total
      (String.concat ""
         (List.map (fun (_, c) -> Printf.sprintf "<td class=\"num\">%d</td>" c) counts))
      rate (stacked_bar counts total)
  in
  "<table><thead><tr><th>class</th><th class=\"num\">total</th><th class=\"num\">startup</th><th \
   class=\"num\">functional</th><th class=\"num\">ignored</th><th class=\"num\">crashed</th><th \
   class=\"num\">n/a</th><th class=\"num\">detected</th><th></th></tr></thead><tbody>"
  ^ String.concat "" (List.map row_html classes)
  ^ "</tbody></table>"

let latency_section rows =
  let b = Buffer.create 1024 in
  Buffer.add_string b "<h3>End-to-end scenario latency (ms)</h3>";
  Buffer.add_string b (svg_bars (bucketize (List.map (fun r -> r.elapsed_ms) rows)));
  let phases =
    List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.phase_ms) rows)
  in
  let ordered = List.filter (fun p -> List.mem p phases) (List.map Span.label Span.all) in
  List.iter
    (fun phase ->
      let vals = List.filter_map (fun r -> List.assoc_opt phase r.phase_ms) rows in
      if vals <> [] then begin
        Buffer.add_string b (Printf.sprintf "<h3>Phase: %s (ms)</h3>" (esc phase));
        Buffer.add_string b (svg_bars (bucketize vals))
      end)
    ordered;
  if ordered = [] then
    Buffer.add_string b
      "<p class=\"muted\">no per-phase timings in this journal \xe2\x80\x94 run with \
       <code>--trace</code> or <code>--metrics</code> to record them (journal v2.1).</p>";
  Buffer.contents b

let frontier_section rows =
  let seen = Hashtbl.create 64 in
  let points =
    List.mapi
      (fun i r ->
        if not (Hashtbl.mem seen r.signature) then Hashtbl.add seen r.signature ();
        (i + 1, Hashtbl.length seen))
      rows
  in
  svg_frontier ((0, 0) :: points)

let metric_total samples name =
  List.fold_left
    (fun acc (s : Metrics.sample) -> if s.sample_name = name then acc +. s.value else acc)
    0.0 samples

let metric_cells samples name =
  List.filter_map
    (fun (s : Metrics.sample) ->
      if s.sample_name = name then
        Some (String.concat " " (List.map (fun (_, v) -> v) s.labels), s.value)
      else None)
    samples

let hardening_section rows metrics_text =
  let b = Buffer.create 1024 in
  let crashed = List.filter (fun r -> r.outcome = "crashed") rows in
  let flaky = count (fun r -> r.flaky) rows in
  let retries = List.fold_left (fun acc r -> acc + (r.attempts - 1)) 0 rows in
  Buffer.add_string b
    (Printf.sprintf "<p>%d crashed scenario(s), %d flaky (passed on retry), %d retry attempt(s).</p>"
       (List.length crashed) flaky retries);
  (if crashed <> [] then begin
     let tbl = Hashtbl.create 16 in
     List.iter
       (fun r ->
         let n, example = try Hashtbl.find tbl r.signature with Not_found -> (0, r.id) in
         Hashtbl.replace tbl r.signature (n + 1, if r.id < example then r.id else example))
       crashed;
     let clusters =
       Hashtbl.fold (fun sig_ (n, ex) acc -> (n, sig_, ex) :: acc) tbl []
       |> List.sort (fun (n1, s1, _) (n2, s2, _) ->
              match compare n2 n1 with 0 -> compare s1 s2 | c -> c)
     in
     Buffer.add_string b
       "<table><thead><tr><th class=\"num\">count</th><th>crash signature</th><th>example</th></tr></thead><tbody>";
     List.iteri
       (fun i (n, sig_, ex) ->
         if i < 12 then
           Buffer.add_string b
             (Printf.sprintf
                "<tr><td class=\"num\">%d</td><td class=\"mono\">%s</td><td class=\"mono\">%s</td></tr>"
                n (esc sig_) (esc ex)))
       clusters;
     Buffer.add_string b "</tbody></table>"
   end);
  (match metrics_text with
  | None -> ()
  | Some text -> (
    match Metrics.parse_exposition text with
    | Error e -> Buffer.add_string b (Printf.sprintf "<p class=\"muted\">metrics unreadable: %s</p>" (esc e))
    | Ok samples ->
      let skipped = metric_total samples "conferr_breaker_skipped_total" in
      let trips = metric_cells samples "conferr_breaker_trips_total" in
      let chaos = metric_cells samples "conferr_chaos_injections_total" in
      if skipped > 0.0 || trips <> [] then begin
        Buffer.add_string b
          (Printf.sprintf "<p>Circuit breaker: %s scenario(s) skipped while open.</p>" (fnum skipped));
        List.iter
          (fun (bucket, v) ->
            Buffer.add_string b
              (Printf.sprintf "<p class=\"mono indent\">tripped %s \xc3\x97 %s</p>" (fnum v) (esc bucket)))
          trips
      end;
      if chaos <> [] then begin
        Buffer.add_string b "<p>Chaos injections:</p>";
        List.iter
          (fun (fault, v) ->
            Buffer.add_string b
              (Printf.sprintf "<p class=\"mono indent\">%s \xc3\x97 %s</p>" (esc fault) (fnum v)))
          chaos
      end));
  Buffer.contents b

type cell = Text of string | Mono of string | Num of string | Badge of tone * string

type panel = {
  heading : string;
  blurb : string;
  tiles : (string * int * string) list;
  columns : (string * bool) list;
  rows : cell list list;
  empty : string;
  noun : string;
  command : string;
}

let cell_html = function
  | Text s -> "<td>" ^ esc s ^ "</td>"
  | Mono s -> "<td class=\"mono\">" ^ esc s ^ "</td>"
  | Num s -> "<td class=\"num\">" ^ esc s ^ "</td>"
  | Badge (tone, label) ->
    Printf.sprintf
      "<td><span class=\"key\"><span class=\"swatch %s\"></span>%s</span></td>"
      (tone_class tone) (esc label)

(* Tables show their first [shown] rows; the note names the command
   that lists the rest. *)
let shown = 40

let panel_section b p =
  Printf.bprintf b "<section><h2>%s</h2><p class=\"muted\">%s</p><section class=\"tiles\">"
    (esc p.heading) (esc p.blurb);
  List.iter (fun (label, n, sub) -> Buffer.add_string b (tile label (string_of_int n) sub)) p.tiles;
  Buffer.add_string b "</section>";
  (match p.rows with
  | [] -> Printf.bprintf b "<p class=\"muted\">%s</p>" (esc p.empty)
  | rows ->
    Buffer.add_string b "<table><thead><tr>";
    List.iter
      (fun (label, numeric) ->
        Printf.bprintf b "<th%s>%s</th>" (if numeric then " class=\"num\"" else "") (esc label))
      p.columns;
    Buffer.add_string b "</tr></thead><tbody>";
    List.iteri
      (fun i cells ->
        if i < shown then begin
          Buffer.add_string b "<tr>";
          List.iter (fun c -> Buffer.add_string b (cell_html c)) cells;
          Buffer.add_string b "</tr>"
        end)
      rows;
    Buffer.add_string b "</tbody></table>";
    let n = List.length rows in
    if n > shown then
      Printf.bprintf b
        "<p class=\"muted\">%d further %s(s) not shown \xe2\x80\x94 use <code>%s</code> for \
         the full list.</p>"
        (n - shown) (esc p.noun) (esc p.command));
  Buffer.add_string b "</section>"

let css =
  {|
:root {
  --surface: #fcfcfb; --ink: #1a1a19; --muted: #898781; --grid: #e1e0d9;
  --card: #ffffff; --series: #2a78d6;
  --good: #0ca30c; --serious: #ec835a; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #f1efe9; --muted: #898781; --grid: #2c2c2a;
    --card: #222220; --series: #3987e5;
    --good: #2fb52f; --serious: #ec835a; --critical: #e25f5f;
  }
}
* { box-sizing: border-box; }
body { margin: 0 auto; padding: 24px; max-width: 960px; background: var(--surface);
       color: var(--ink); font: 14px/1.5 system-ui, sans-serif; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; margin: 16px 0 4px; color: var(--muted); font-weight: 600; }
.sub, .muted { color: var(--muted); }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-top: 16px; }
.tile { background: var(--card); border: 1px solid var(--grid); border-radius: 8px;
        padding: 10px 14px; min-width: 120px; }
.tile-value { font-size: 22px; font-weight: 650; font-variant-numeric: tabular-nums; }
.tile-label { color: var(--muted); font-size: 12px; }
.tile-sub { color: var(--muted); font-size: 11px; }
table { border-collapse: collapse; width: 100%; margin: 8px 0; }
th, td { text-align: left; padding: 4px 8px; border-bottom: 1px solid var(--grid); }
th { color: var(--muted); font-weight: 600; font-size: 12px; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.mono { font-family: ui-monospace, monospace; font-size: 12px; }
.indent { margin: 0 0 0 16px; }
.barcell { min-width: 140px; }
.stack { display: flex; gap: 2px; height: 10px; }
.seg { border-radius: 2px; min-width: 2px; }
.o-startup { background: var(--good); }
.o-functional { background: var(--series); }
.o-ignored { background: var(--serious); }
.o-crashed { background: var(--critical); }
.o-na { background: var(--muted); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; color: var(--muted); font-size: 12px; }
.key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
svg { display: block; margin: 4px 0 12px; max-width: 100%; }
svg .bar { fill: var(--series); }
svg .line { stroke: var(--series); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg text { fill: var(--muted); font: 10px system-ui, sans-serif; text-anchor: middle; }
svg .val { fill: var(--ink); font-weight: 600; }
details { margin: 24px 0; }
pre { background: var(--card); border: 1px solid var(--grid); border-radius: 8px;
      padding: 12px; overflow-x: auto; font-size: 11px; }
code { font-family: ui-monospace, monospace; }
|}

let html ~title ~rows ?metrics_text ?(panels = []) () =
  let total = List.length rows in
  let na = count (fun r -> r.outcome = "n/a") rows in
  let detected =
    count (fun r -> r.outcome = "startup" || r.outcome = "functional" || r.outcome = "crashed") rows
  in
  let rate =
    if total - na = 0 then 0.0 else 100.0 *. Float.of_int detected /. Float.of_int (total - na)
  in
  let wall = List.fold_left (fun acc r -> acc +. r.elapsed_ms) 0.0 rows in
  let b = Buffer.create 16384 in
  Buffer.add_string b "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">";
  Buffer.add_string b
    "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">";
  Buffer.add_string b (Printf.sprintf "<title>%s</title>" (esc title));
  Buffer.add_string b "<style>";
  Buffer.add_string b css;
  Buffer.add_string b "</style></head><body>";
  Buffer.add_string b (Printf.sprintf "<header><h1>%s</h1>" (esc title));
  Buffer.add_string b
    (Printf.sprintf "<p class=\"sub\">conferr resilience report \xc2\xb7 %d scenario(s)</p></header>"
       total);
  Buffer.add_string b "<section class=\"tiles\">";
  Buffer.add_string b (tile "scenarios" (string_of_int total) (Printf.sprintf "%d applicable" (total - na)));
  Buffer.add_string b (tile "detection rate" (Printf.sprintf "%.0f%%" rate) "startup + functional + crashed");
  Buffer.add_string b (tile "crashed" (string_of_int (count (fun r -> r.outcome = "crashed") rows)) "");
  Buffer.add_string b (tile "distinct signatures" (string_of_int (distinct_signatures rows)) "");
  Buffer.add_string b (tile "flaky" (string_of_int (count (fun r -> r.flaky) rows)) "passed on retry");
  Buffer.add_string b (tile "SUT wall time" (Printf.sprintf "%.0f ms" wall) "sum over scenarios");
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Resilience profile</h2>";
  Buffer.add_string b legend;
  Buffer.add_string b (class_table rows);
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Latency</h2>";
  Buffer.add_string b (latency_section rows);
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Discovery frontier</h2>";
  Buffer.add_string b
    "<p class=\"muted\">distinct outcome signatures over campaign progress</p>";
  Buffer.add_string b (frontier_section rows);
  Buffer.add_string b "</section>";
  Buffer.add_string b "<section><h2>Hardening</h2>";
  Buffer.add_string b (hardening_section rows metrics_text);
  Buffer.add_string b "</section>";
  List.iter (panel_section b) panels;
  (match metrics_text with
  | Some text when String.trim text <> "" ->
    Buffer.add_string b "<details><summary>Raw metrics snapshot</summary><pre>";
    Buffer.add_string b (esc text);
    Buffer.add_string b "</pre></details>"
  | _ -> ());
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b

let write_file ~title ~rows ?metrics_text ?panels path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (html ~title ~rows ?metrics_text ?panels ()))
