(* Closed loops over the one-shot CLI — one conferr process at a
   time, the next spawned as soon as the previous one exits — and the
   checks on what those processes wrote. *)

module Json = Conferr_obsv.Json
module Journal = Conferr_exec.Journal

type ctx = {
  conferr : string;  (** absolute path of the CLI under test *)
  reference : string;  (** absolute path of reference.exe (Speed) *)
  dir : string;  (** this run's work directory *)
  expected : Json.t;  (** bench/e2e/expected.json *)
}

type invocation = {
  sut : string;
  seed : int;
  cmd : string;
  run : Proc.run;
  factor : float;  (** host slowdown when it ran ({!Speed.factor}) *)
}

(* Run one conferr command; with [speed], time the host reference just
   before and just after it and record the factor then. *)
let invoke ?speed ctx ~sut ~seed cmd args =
  let sample () = Option.iter Speed.sample speed in
  sample ();
  let run = Proc.run ctx.conferr args in
  sample ();
  { sut; seed; cmd; run; factor = Option.fold ~none:1. ~some:Speed.factor speed }

let journal_path ctx ~sut ~seed =
  Filename.concat ctx.dir (Printf.sprintf "journals/%s-%d.jsonl" sut seed)

let profile ?speed ctx ~sut ~seed =
  invoke ?speed ctx ~sut ~seed "profile"
    [
      "profile"; "--sut"; sut; "--seed"; string_of_int seed; "--csv"; "--jobs";
      "1"; "--journal"; journal_path ctx ~sut ~seed;
    ]

(* Cold start of the CLI at reference speed: the median spawn-to-exit
   time of [n] runs of [conferr list-suts], which must list every SUT. *)
let setup_s ctx ~speed ~n =
  let times =
    List.init n (fun _ ->
        let i = invoke ~speed ctx ~sut:"" ~seed:0 "list-suts" [ "list-suts" ] in
        let listed = List.length (String.split_on_char '\n' (String.trim i.run.out)) in
        if i.run.code <> 0 || listed <> List.length Suts.Catalog.all then
          failwith ("conferr list-suts failed: " ^ i.run.err);
        Proc.ms_between i.run.spawn_ns i.run.exit_ns /. 1e3 /. i.factor)
  in
  Stats.median times

(* Rounds of one campaign per SUT, at campaign seeds [seed], [seed]+1, …,
   until the first round boundary past [until_ns]. *)
let campaign_loop ctx ~speed ~suts ~seed ~until_ns =
  let rec rounds k acc =
    let acc =
      List.fold_left
        (fun acc sut -> profile ~speed ctx ~sut ~seed:(seed + k) :: acc)
        acc suts
    in
    if Proc.now_ns () >= until_ns then List.rev acc else rounds (k + 1) acc
  in
  rounds 0 []

(* One replay unit: gaps, infer and repair over one recorded journal. *)
let replay_unit ?speed ctx ~sut ~seed =
  List.map
    (fun (cmd, args) ->
      invoke ?speed ctx ~sut ~seed cmd
        (args
        @ [
            "--sut"; sut; "--seed"; string_of_int seed; "--journal";
            journal_path ctx ~sut ~seed; "--format"; "json";
          ]))
    [ ("gaps", [ "gaps"; "--deep" ]); ("infer", [ "infer" ]); ("repair", [ "repair" ]) ]

(* Rounds at campaign seeds [seed], [seed]+1, …, until the first round
   boundary past [until_ns]: each records the journal of every SUT in
   [suts] (untimed) and replays it.  The profile runs and the replay
   runs, in order. *)
let replay_loop ctx ~speed ~suts ~seed ~until_ns =
  let rec rounds k recorded replayed =
    let seed = seed + k in
    let recorded =
      List.fold_left (fun acc sut -> profile ctx ~sut ~seed :: acc) recorded suts
    in
    let replayed =
      List.fold_left
        (fun acc sut -> List.rev_append (replay_unit ~speed ctx ~sut ~seed) acc)
        replayed suts
    in
    if Proc.now_ns () >= until_ns then (List.rev recorded, List.rev replayed)
    else rounds (k + 1) recorded replayed
  in
  rounds 0 [] []

(* ------------------------------------------------------------------ *)
(* Output checks: each returns the problems found, [] when correct.    *)
(* ------------------------------------------------------------------ *)

let expected_member ctx path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some ctx.expected) path

let golden_seed ctx =
  match Option.bind (expected_member ctx [ "golden_seed" ]) Json.num with
  | Some f -> int_of_float f
  | None -> failwith "expected.json: no golden_seed"

let csv_rows text =
  match String.split_on_char '\n' text with
  | [] -> []
  | _header :: rows ->
    List.filter_map
      (fun row ->
        match String.split_on_char ',' row with
        | id :: outcome :: _ -> Some (id, outcome)
        | _ -> None)
      rows

let problem inv fmt =
  Printf.ksprintf
    (fun s -> Printf.sprintf "%s %s seed %d: %s" inv.cmd inv.sut inv.seed s)
    fmt

(* A profile run exits 0; its journal is fsck-clean and holds one entry
   per scenario, in the CSV's order and with the CSV's outcomes; the
   scenario count is the SUT's; at the golden seed the CSV's digest is
   the recorded one. *)
let check_profile ctx inv =
  if inv.run.code <> 0 then [ problem inv "exit %d: %s" inv.run.code inv.run.err ]
  else
    let path = journal_path ctx ~sut:inv.sut ~seed:inv.seed in
    let rows = csv_rows inv.run.out in
    let journal_rows =
      List.map
        (fun (e : Journal.entry) -> (e.scenario_id, Conferr.Outcome.label e.outcome))
        (Journal.load path)
    in
    let expected key get = Option.bind (expected_member ctx [ key; inv.sut ]) get in
    let count = expected "scenarios" Json.num in
    let digest = expected "profile_csv_md5" Json.str in
    List.concat
      [
        (if Journal.clean (Journal.fsck path) then []
         else [ problem inv "journal not fsck-clean" ]);
        (if journal_rows = rows then []
         else
           [
             problem inv "journal (%d entries) and CSV (%d rows) disagree"
               (List.length journal_rows) (List.length rows);
           ]);
        (if count = Some (float_of_int (List.length rows)) then []
         else [ problem inv "%d scenarios, not the SUT's count" (List.length rows) ]);
        (if inv.seed <> golden_seed ctx
            || digest = Some (Digest.to_hex (Digest.string inv.run.out))
         then []
         else [ problem inv "CSV differs from the golden digest" ]);
      ]

let json_int j key = Option.map int_of_float (Option.bind (Json.member key j) Json.num)

let counts j keys =
  Json.Obj
    (List.filter_map
       (fun k -> Option.map (fun v -> (k, Json.Num (float_of_int v))) (json_int j k))
       keys)

(* What expected.json records of a replay command's output. *)
let golden_view cmd j =
  match cmd with
  | "gaps" -> Json.member "kinds" j
  | "infer" -> (
    match Json.member "candidates" j with
    | Some (Json.Arr cs) ->
      Some
        (Json.Obj
           [
             ("candidates", Json.Num (float_of_int (List.length cs)));
             ("dropped", Option.value (Json.member "dropped" j) ~default:Json.Null);
           ])
    | _ -> None)
  | _ ->
    Some
      (counts j [ "repaired"; "already_clean"; "unrepairable"; "skipped"; "validated" ])

(* A replay run exits 0 or 1 (1 reports gaps, rule differences or
   unrepairable targets); its JSON covers every journal entry; at the
   golden seed its counts are the recorded ones. *)
let check_replay ctx inv =
  if Proc.run_failed inv.run then [ problem inv "exit %d: %s" inv.run.code inv.run.err ]
  else
    match Json.of_string (String.trim inv.run.out) with
    | Error msg -> [ problem inv "output is not JSON: %s" msg ]
    | Ok j ->
      let journal = journal_path ctx ~sut:inv.sut ~seed:inv.seed in
      let entries = List.length (Journal.load journal) in
      let covered =
        match inv.cmd with
        | "repair" ->
          List.fold_left
            (fun n k -> n + Option.value (json_int j k) ~default:0)
            0
            [ "repaired"; "already_clean"; "unrepairable"; "skipped" ]
        | _ -> Option.value (json_int j "entries") ~default:(-1)
      in
      (if covered = entries then []
       else [ problem inv "covers %d of %d journal entries" covered entries ])
      @
      let expect = expected_member ctx [ "replay"; inv.sut; inv.cmd ] in
      if inv.seed <> golden_seed ctx || (expect <> None && expect = golden_view inv.cmd j)
      then []
      else [ problem inv "counts differ from expected.json" ]

(* The same replay command over the same journal prints the same bytes
   each time. *)
let check_replay_determinism invs =
  let first = Hashtbl.create 64 in
  List.filter_map
    (fun inv ->
      let key = (inv.cmd, inv.sut, inv.seed) in
      match Hashtbl.find_opt first key with
      | None ->
        Hashtbl.add first key inv.run.out;
        None
      | Some out when out = inv.run.out -> None
      | Some _ -> Some (problem inv "output differs between rounds"))
    invs
