module Engine = Conferr.Engine
module Profile = Conferr.Profile
module Scenario = Errgen.Scenario
module Gen = Errgen.Gen
module Executor = Conferr_exec.Executor
module Journal = Conferr_exec.Journal
module Signature = Conferr_exec.Signature
module Texttable = Conferr_util.Texttable
module Repro = Conferr_harden.Repro
module Metrics = Conferr_obsv.Metrics

type settings = {
  exec : Executor.settings;
  batch : int;
  budget : int option;
  wallclock_s : float option;
  plateau : int;
  quarantine_path : string option;
}

let default_settings =
  {
    exec = Executor.default_settings;
    batch = 32;
    budget = None;
    wallclock_s = None;
    plateau = 4;
    quarantine_path = None;
  }

type stop_reason =
  | Budget_exhausted
  | Wallclock_exceeded
  | Plateaued of int
  | Stream_exhausted

type frontier_entry = {
  key : Signature.key;
  first_id : string;
  first_description : string;
  discovered_batch : int;
  hits : int;
}

type report = {
  sut_name : string;
  frontier : frontier_entry list;
  batches : int;
  considered : int;
  executed : int;
  duplicates : int;
  resumed : int;
  not_applicable : int;
  deferred : int;
  stop : stop_reason;
  profile : Profile.t;
  duplicate_of : (string * string) list;
  energies : ((string * string) * float) list;
}

(* ------------------------------------------------------------------ *)
(* Novelty buckets                                                     *)
(* ------------------------------------------------------------------ *)

(* Generator descriptions end in "... at <file>:<path>"; the file part
   is the bucket's second axis.  A description without the convention
   lands in the "-" bucket, which only costs scheduling precision. *)
let bucket_of_scenario (s : Scenario.t) =
  let d = s.description in
  let marker = " at " in
  let mlen = String.length marker in
  let dlen = String.length d in
  let rec last_marker i best =
    if i + mlen > dlen then best
    else if String.sub d i mlen = marker then last_marker (i + 1) (Some i)
    else last_marker (i + 1) best
  in
  let file =
    match last_marker 0 None with
    | None -> "-"
    | Some i ->
      let rest = String.sub d (i + mlen) (dlen - i - mlen) in
      (match String.rindex_opt rest ':' with
       | Some j -> String.sub rest 0 j
       | None -> rest)
  in
  (s.class_name, file)

type bucket = { mutable energy : float; queue : Scenario.t Queue.t }

let boost_factor = 1.7
let energy_cap = 8.0
let decay_factor = 0.6
let energy_floor = 0.05

(* ------------------------------------------------------------------ *)
(* The search loop                                                     *)
(* ------------------------------------------------------------------ *)

(* A scheduled scenario after classification, in scheduling order. *)
type classified =
  | Reuse of (string * string) * Scenario.t * Journal.entry
  | Skip (* duplicate of an earlier mutant *)
  | Run of (string * string) * Scenario.t

let run_from ?(settings = default_settings) ?on_event ~sut ~base ~stream () =
  let t0 = Unix.gettimeofday () in
  let cache = Mutant_cache.create () in
  let buckets : (string * string, bucket) Hashtbl.t = Hashtbl.create 16 in
  let bucket_of key =
    match Hashtbl.find_opt buckets key with
    | Some b -> b
    | None ->
      let b = { energy = 1.0; queue = Queue.create () } in
      Hashtbl.add buckets key b;
      b
  in
  (* scenarios quarantined as flaky by a previous hardened campaign are
     deferred: they only run once every regular bucket has drained *)
  let quarantined =
    match settings.quarantine_path with
    | None -> []
    | Some dir -> Repro.load_flaky dir
  in
  let deferred_q : Scenario.t Queue.t = Queue.create () in
  let deferred = ref 0 in
  let queued = ref 0 in
  let stream_done = ref false in
  let pull_into_buckets target =
    while (not !stream_done) && !queued < target do
      match Gen.next stream with
      | None -> stream_done := true
      | Some s ->
        if List.mem s.Scenario.id quarantined then begin
          Queue.add s deferred_q;
          incr deferred
        end
        else begin
          Queue.add s (bucket_of (bucket_of_scenario s)).queue;
          incr queued
        end
    done
  in
  (* Weighted selection: repeatedly take from the non-empty bucket with
     the highest effective energy (energy / (1 + already taken this
     batch)), ties broken by bucket key — a deterministic weighted
     round-robin. *)
  let select_batch () =
    pull_into_buckets (2 * settings.batch);
    let taken : (string * string, int) Hashtbl.t = Hashtbl.create 8 in
    let taken_of key = Option.value ~default:0 (Hashtbl.find_opt taken key) in
    let rec pick acc k =
      if k = 0 then List.rev acc
      else
        let candidates =
          Hashtbl.fold
            (fun key b acc ->
              if Queue.is_empty b.queue then acc else (key, b) :: acc)
            buckets []
          |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
        in
        match candidates with
        | [] ->
          if Queue.is_empty deferred_q then List.rev acc
          else begin
            (* buckets are dry: drain the quarantined tail *)
            let s = Queue.pop deferred_q in
            pick ((bucket_of_scenario s, s) :: acc) (k - 1)
          end
        | first :: rest ->
          let eff (key, b) = b.energy /. float_of_int (1 + taken_of key) in
          let key, b =
            List.fold_left
              (fun best c -> if eff c > eff best then c else best)
              first rest
          in
          let s = Queue.pop b.queue in
          decr queued;
          Hashtbl.replace taken key (1 + taken_of key);
          pick ((key, s) :: acc) (k - 1)
    in
    pick [] settings.batch
  in
  (* counters and discovery state *)
  let considered = ref 0 in
  let executed = ref 0 in
  let duplicates = ref 0 in
  let resumed = ref 0 in
  let not_applicable = ref 0 in
  let batch_no = ref 0 in
  let plateau_run = ref 0 in
  let stop = ref None in
  let seen : (Signature.key, frontier_entry ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let discovery_rev = ref [] in
  let profile_rev = ref [] in
  let journal_entries_rev = ref [] in
  let duplicate_of_rev = ref [] in
  (* folds one finished entry into profile + frontier; returns whether
     its signature was previously unseen *)
  let note_entry (s : Scenario.t) (je : Journal.entry) =
    journal_entries_rev := je :: !journal_entries_rev;
    let pe =
      {
        Profile.scenario_id = je.scenario_id;
        class_name = je.class_name;
        description = je.description;
        outcome = je.outcome;
      }
    in
    profile_rev := pe :: !profile_rev;
    let key = Signature.of_entry pe in
    match Hashtbl.find_opt seen key with
    | Some fr ->
      fr := { !fr with hits = (!fr).hits + 1 };
      false
    | None ->
      let fr =
        ref
          {
            key;
            first_id = s.id;
            first_description = s.description;
            discovered_batch = !batch_no;
            hits = 1;
          }
      in
      Hashtbl.add seen key fr;
      discovery_rev := fr :: !discovery_rev;
      true
  in
  let process_batch campaign picked =
    (* 1. classify sequentially: duplicate / journal hit / to run *)
    let classified =
      List.map
        (fun (bkey, (s : Scenario.t)) ->
          incr considered;
          (* classify through the cache even for journaled scenarios, so
             a resumed run rebuilds the same digest table and keeps
             deduping exactly like the original run did *)
          match Mutant_cache.classify cache ~sut ~base s with
          | Mutant_cache.Duplicate_of { first_id; _ } ->
            incr duplicates;
            duplicate_of_rev := (s.id, first_id) :: !duplicate_of_rev;
            Skip
          | (Mutant_cache.Inexpressible _ | Mutant_cache.Fresh _) as verdict ->
            (match Executor.journaled campaign s.id with
             | Some je ->
               incr resumed;
               Reuse (bkey, s, je)
             | None ->
               (match verdict with
                | Mutant_cache.Inexpressible _ -> incr not_applicable
                | _ -> incr executed);
               Run (bkey, s)))
        picked
    in
    (* 2. run the batch on the executor; an inexpressible mutant comes
       back n/a without booting the SUT *)
    let finished = Hashtbl.create 16 in
    classified
    |> List.filter_map (function Run (_, s) -> Some s | _ -> None)
    |> List.mapi (fun i s -> (i, s))
    |> Array.of_list
    |> Executor.run_batch campaign
    |> Array.iter (fun (_, (je : Journal.entry)) ->
           Hashtbl.replace finished je.scenario_id je);
    (* 3. fold outcomes in scheduling order; note productive buckets *)
    let productive : (string * string, unit) Hashtbl.t = Hashtbl.create 8 in
    let new_sigs = ref 0 in
    List.iter
      (fun c ->
        let folded =
          match c with
          | Reuse (bkey, s, je) -> Some (bkey, s, je)
          | Run (bkey, s) ->
            Option.map (fun je -> (bkey, s, je)) (Hashtbl.find_opt finished s.id)
          | Skip -> None
        in
        match folded with
        | None -> ()
        | Some (bkey, s, je) ->
          if note_entry s je then begin
            incr new_sigs;
            Hashtbl.replace productive bkey ()
          end)
      classified;
    (* 4. energy update for every bucket scheduled this batch *)
    List.sort_uniq compare (List.map fst picked)
    |> List.iter (fun bkey ->
           let b = bucket_of bkey in
           if Hashtbl.mem productive bkey then
             b.energy <- Float.min (b.energy *. boost_factor) energy_cap
           else b.energy <- Float.max (b.energy *. decay_factor) energy_floor);
    !new_sigs
  in
  let rec loop campaign =
    (match settings.budget with
     | Some b when !executed >= b -> stop := Some Budget_exhausted
     | _ -> ());
    (match settings.wallclock_s with
     | Some w when Unix.gettimeofday () -. t0 >= w ->
       stop := Some Wallclock_exceeded
     | _ -> ());
    match !stop with
    | Some _ -> ()
    | None ->
      let picked = select_batch () in
      if picked = [] then stop := Some Stream_exhausted
      else begin
        incr batch_no;
        let new_sigs = process_batch campaign picked in
        if new_sigs = 0 then incr plateau_run else plateau_run := 0;
        if settings.plateau > 0 && !plateau_run >= settings.plateau then
          stop := Some (Plateaued !plateau_run);
        loop campaign
      end
  in
  ignore
    (Executor.with_campaign ~settings:settings.exec ?on_event
       ~sut ~base ~total:0 (fun campaign ->
         loop campaign;
         List.rev !journal_entries_rev));
  (match settings.exec.metrics with
   | None -> ()
   | Some reg ->
     (* final search state as gauges: exact values, resume-safe *)
     Metrics.set reg "conferr_explore_considered" (float_of_int !considered);
     Metrics.set reg "conferr_explore_executed" (float_of_int !executed);
     Metrics.set reg "conferr_explore_duplicates" (float_of_int !duplicates);
     Metrics.set reg "conferr_explore_not_applicable"
       (float_of_int !not_applicable);
     Metrics.set reg "conferr_explore_resumed" (float_of_int !resumed);
     Metrics.set reg "conferr_explore_deferred" (float_of_int !deferred);
     Metrics.set reg "conferr_explore_batches" (float_of_int !batch_no);
     Metrics.set reg "conferr_explore_signatures"
       (float_of_int (Hashtbl.length seen));
     Hashtbl.iter
       (fun (class_name, file) (b : bucket) ->
         Metrics.set reg "conferr_explore_energy"
           ~labels:[ ("class", class_name); ("file", file) ]
           b.energy)
       buckets);
  {
    sut_name = sut.Suts.Sut.sut_name;
    frontier = List.rev_map (fun fr -> !fr) !discovery_rev;
    batches = !batch_no;
    considered = !considered;
    executed = !executed;
    duplicates = !duplicates;
    resumed = !resumed;
    not_applicable = !not_applicable;
    deferred = !deferred;
    stop = Option.value ~default:Stream_exhausted !stop;
    profile = Profile.make ~sut_name:sut.Suts.Sut.sut_name (List.rev !profile_rev);
    duplicate_of = List.rev !duplicate_of_rev;
    energies =
      Hashtbl.fold (fun key b acc -> (key, b.energy) :: acc) buckets []
      |> List.sort compare;
  }

let run ?settings ?on_event ~sut ~stream () =
  match Engine.parse_default_config sut with
  | Error message ->
    Error { Engine.sut_name = sut.Suts.Sut.sut_name; message }
  | Ok base ->
    Ok (run_from ?settings ?on_event ~sut ~base ~stream:(stream base) ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let stop_reason_to_string = function
  | Budget_exhausted -> "scenario budget exhausted"
  | Wallclock_exceeded -> "wall-clock budget exceeded"
  | Plateaued n -> Printf.sprintf "plateau (%d batches without a new signature)" n
  | Stream_exhausted -> "scenario stream exhausted"

let render r =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf
    "exploration of %s: %d distinct signatures in %d batch%s (stopped: %s)\n"
    r.sut_name (List.length r.frontier) r.batches
    (if r.batches = 1 then "" else "es")
    (stop_reason_to_string r.stop);
  Printf.bprintf buf
    "  considered %d | executed %d | duplicates skipped %d | n/a %d | resumed %d\n"
    r.considered r.executed r.duplicates r.not_applicable r.resumed;
  if r.deferred > 0 then
    Printf.bprintf buf "  deferred %d quarantined (flaky) scenario%s\n"
      r.deferred
      (if r.deferred = 1 then "" else "s");
  Buffer.add_char buf '\n';
  Buffer.add_string buf "Signature frontier (first discoverer per cluster):\n";
  let row (f : frontier_entry) =
    [
      string_of_int f.discovered_batch;
      string_of_int f.hits;
      f.key.Signature.class_name;
      f.key.Signature.label;
      (if f.key.Signature.message = "" then "-" else f.key.Signature.message);
      f.first_id;
    ]
  in
  Buffer.add_string buf
    (Texttable.render
       ~aligns:[ Texttable.Right; Right; Left; Left; Left; Left ]
       ~header:[ "batch"; "hits"; "fault class"; "outcome"; "signature"; "first" ]
       (List.map row r.frontier));
  Buffer.add_string buf "\nBucket energies (fault class @ file):\n";
  List.iter
    (fun ((class_name, file), energy) ->
      Printf.bprintf buf "  %-28s @ %-20s %.2f\n" class_name file energy)
    r.energies;
  Buffer.contents buf
