module Texttable = Conferr_util.Texttable
module Strutil = Conferr_util.Strutil

type entry = {
  scenario_id : string;
  class_name : string;
  description : string;
  outcome : Outcome.t;
}

type t = { sut_name : string; entries : entry list }

type summary = {
  total : int;
  startup : int;
  functional : int;
  ignored : int;
  not_applicable : int;
  crashed : int;
}

let make ~sut_name entries = { sut_name; entries }

let summarize_entries entries =
  let count pred = List.length (List.filter pred entries) in
  let startup =
    count (fun e -> match e.outcome with Outcome.Startup_failure _ -> true | _ -> false)
  in
  let functional =
    count (fun e -> match e.outcome with Outcome.Test_failure _ -> true | _ -> false)
  in
  let ignored = count (fun e -> e.outcome = Outcome.Passed) in
  let not_applicable =
    count (fun e -> match e.outcome with Outcome.Not_applicable _ -> true | _ -> false)
  in
  let crashed =
    count (fun e -> match e.outcome with Outcome.Crashed _ -> true | _ -> false)
  in
  {
    total = startup + functional + ignored + crashed;
    startup;
    functional;
    ignored;
    not_applicable;
    crashed;
  }

let summarize t = summarize_entries t.entries

let summarize_class t prefix =
  summarize_entries
    (List.filter (fun e -> Strutil.is_prefix ~prefix e.class_name) t.entries)

let class_names t =
  List.fold_left
    (fun acc e -> if List.mem e.class_name acc then acc else e.class_name :: acc)
    [] t.entries
  |> List.rev

let filter pred t = { t with entries = List.filter pred t.entries }

let detection_rate s =
  if s.total = 0 then 0.
  else float_of_int (s.startup + s.functional + s.crashed) /. float_of_int s.total

(* The "crashed" column only appears when at least one entry crashed, so
   profiles of campaigns without harness-level crashes (every run before
   chaos/sandboxing existed) render byte-identically to older versions. *)
let render t =
  let with_crashed = (summarize t).crashed > 0 in
  let row name s =
    [ name; string_of_int s.total;
      Texttable.percentage ~count:s.startup ~total:s.total;
      Texttable.percentage ~count:s.functional ~total:s.total ]
    @ (if with_crashed then
         [ Texttable.percentage ~count:s.crashed ~total:s.total ]
       else [])
    @ [
        Texttable.percentage ~count:s.ignored ~total:s.total;
        string_of_int s.not_applicable;
      ]
  in
  let class_rows =
    List.map (fun c -> row c (summarize_class t c)) (class_names t)
  in
  let total_row = row "TOTAL" (summarize t) in
  let header =
    [ "fault class"; "applicable"; "startup"; "functional" ]
    @ (if with_crashed then [ "crashed" ] else [])
    @ [ "ignored"; "n/a" ]
  in
  let aligns =
    Texttable.Left :: List.map (fun _ -> Texttable.Right) (List.tl header)
  in
  Printf.sprintf "Resilience profile for %s\n%s" t.sut_name
    (Texttable.render ~aligns ~header (class_rows @ [ total_row ]))

let render_by_cognitive_level t =
  let levels =
    [ Errgen.Cognitive.Skill_based; Errgen.Cognitive.Rule_based;
      Errgen.Cognitive.Knowledge_based ]
  in
  let entries_of level =
    List.filter
      (fun e -> Errgen.Cognitive.of_class_name e.class_name = level)
      t.entries
  in
  let with_crashed = (summarize t).crashed > 0 in
  let row label entries =
    let s = summarize_entries entries in
    [
      label;
      string_of_int s.total;
      Texttable.percentage ~count:s.startup ~total:s.total;
      Texttable.percentage ~count:s.functional ~total:s.total;
    ]
    @ (if with_crashed then
         [ Texttable.percentage ~count:s.crashed ~total:s.total ]
       else [])
    @ [ Texttable.percentage ~count:s.ignored ~total:s.total ]
  in
  let level_rows =
    List.map
      (fun level -> row (Errgen.Cognitive.name level) (entries_of (Some level)))
      levels
  in
  let unclassified = entries_of None in
  let rows =
    level_rows @ (if unclassified = [] then [] else [ row "unclassified" unclassified ])
  in
  let header =
    [ "cognitive level"; "applicable"; "startup"; "functional" ]
    @ (if with_crashed then [ "crashed" ] else [])
    @ [ "ignored" ]
  in
  let aligns =
    Texttable.Left :: List.map (fun _ -> Texttable.Right) (List.tl header)
  in
  Printf.sprintf "Outcomes by GEMS cognitive level for %s\n%s" t.sut_name
    (Texttable.render ~aligns ~header rows)

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\""
    ^ String.concat "\"\"" (String.split_on_char '"' s)
    ^ "\""
  else s

let to_csv t =
  let line e =
    String.concat ","
      (List.map csv_field
         [ e.scenario_id; Outcome.label e.outcome; e.class_name; e.description ])
  in
  String.concat "\n"
    (("scenario_id,outcome,class,description" :: List.map line t.entries) @ [ "" ])

let render_entries t =
  let row e =
    [ e.scenario_id; Outcome.label e.outcome; e.class_name; e.description ]
  in
  Texttable.render ~header:[ "id"; "outcome"; "class"; "description" ]
    (List.map row t.entries)
