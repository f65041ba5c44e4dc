module Node = Conftree.Node
module Rng = Conferr_util.Rng
module Texttable = Conferr_util.Texttable
module Scenario = Errgen.Scenario
module Typo = Errgen.Typo

type task = { directive : string; new_value : string }

type task_result = { task : task; injections : int; detected : int }

type t = { sut_name : string; task_results : task_result list }

let directives_of tree =
  Node.find_all
    (fun n -> n.Node.kind = Node.kind_directive && n.Node.value <> None)
    tree

(* Apply the administrator's valid edit, then pick typo targets within
   [proximity] positions of it (in document order over directives). *)
let proximity = 2

let run_task ~rng ~experiments ~sut ~file ~base task =
  match Conftree.Config_set.find base file with
  | None -> Error (Printf.sprintf "file %S missing" file)
  | Some tree ->
    let directives = directives_of tree in
    (match
       List.find_opt (fun (_, (n : Node.t)) -> n.name = task.directive) directives
     with
     | None -> Ok { task; injections = 0; detected = 0 }
     | Some (edit_path, edited) ->
       (* the valid transformation *)
       let edited' = { edited with Node.value = Some task.new_value } in
       (match Node.replace tree edit_path edited' with
        | None -> Error "edit failed"
        | Some tree' ->
          let base' = Conftree.Config_set.add base file tree' in
          (* sanity: the transformed configuration must still be valid *)
          (match Engine.serialize_config sut base' with
           | Error msg -> Error (Printf.sprintf "task produces unserializable config: %s" msg)
           | Ok files ->
             (match sut.Suts.Sut.boot files with
              | Error msg ->
                Error
                  (Printf.sprintf "task %S -> %S is not a valid edit: %s" task.directive
                     task.new_value msg)
              | Ok instance ->
                instance.Suts.Sut.shutdown ();
                (* typo targets near the edit *)
                let directives' = directives_of tree' in
                let edit_index =
                  let rec find i = function
                    | [] -> 0
                    | (p, _) :: rest ->
                      if Conftree.Path.equal p edit_path then i else find (i + 1) rest
                  in
                  find 0 directives'
                in
                let nearby =
                  List.filteri
                    (fun i _ -> abs (i - edit_index) <= proximity)
                    directives'
                in
                let outcomes =
                  List.init experiments (fun _ ->
                      let path, node = Rng.pick rng nearby in
                      match node.Node.value with
                      | None -> None
                      | Some w ->
                        (match Typo.random_kind_first rng w with
                         | None -> None
                         | Some (mutated, what) ->
                           let scenario =
                             Scenario.make ~id:"bench"
                               ~class_name:"process-bench/value-typo"
                               ~description:
                                 (Printf.sprintf "%s in %S near edit of %S" what
                                    node.name task.directive)
                               (Scenario.edit_in_file ~file (fun t ->
                                    Node.replace t path
                                      { node with Node.value = Some mutated }))
                           in
                           Some (Engine.run_scenario ~sut ~base:base' scenario)))
                  |> List.filter_map Fun.id
                in
                Ok
                  {
                    task;
                    injections = List.length outcomes;
                    detected = List.length (List.filter Outcome.detected outcomes);
                  }))))

let run ~rng ?(experiments = 20) ~sut ~config ~tasks () =
  let file, text = config in
  match Engine.parse_config sut [ (file, text) ] with
  | Error msg -> Error msg
  | Ok base ->
    let rec go acc = function
      | [] -> Ok { sut_name = sut.Suts.Sut.sut_name; task_results = List.rev acc }
      | task :: rest ->
        (match run_task ~rng ~experiments ~sut ~file ~base task with
         | Error msg -> Error msg
         | Ok result -> go (result :: acc) rest)
    in
    go [] tasks

let detection_rate t =
  let detected, total =
    List.fold_left
      (fun (d, n) r -> (d + r.detected, n + r.injections))
      (0, 0) t.task_results
  in
  if total = 0 then 0. else float_of_int detected /. float_of_int total

let render t =
  let rows =
    List.map
      (fun r ->
        [
          Printf.sprintf "%s := %s" r.task.directive r.task.new_value;
          string_of_int r.injections;
          Texttable.percentage ~count:r.detected ~total:r.injections;
        ])
      t.task_results
  in
  Printf.sprintf "Configuration-process benchmark for %s (overall detection %.0f%%)\n%s"
    t.sut_name
    (100. *. detection_rate t)
    (Texttable.render
       ~aligns:[ Texttable.Left; Texttable.Right; Texttable.Right ]
       ~header:[ "task (valid edit)"; "injections"; "detected" ]
       rows)
