module Node = Conftree.Node
module Path = Conftree.Path
module Config_set = Conftree.Config_set
module Rng = Conferr_util.Rng
module Scenario = Errgen.Scenario
module Typo = Errgen.Typo

type faultload = {
  delete_directives : bool;
  directives_per_section : int;
  typos_per_directive : int;
}

let paper_faultload =
  { delete_directives = true; directives_per_section = 10; typos_per_directive = 10 }

(* Every section of the tree, as (section path, directive (path, node)
   list).  The root counts as a section when it directly contains
   directives (flat formats, Apache's main context). *)
let sections_of tree =
  let directives_in path (n : Node.t) =
    List.mapi (fun i c -> (path @ [ i ], c)) n.children
    |> List.filter (fun (_, (c : Node.t)) -> c.kind = Node.kind_directive)
  in
  Node.fold
    (fun path n acc ->
      if n.Node.kind = Node.kind_section || (path = [] && directives_in path n <> [])
      then (path, directives_in path n) :: acc
      else acc)
    tree []
  |> List.rev

let deletion_scenarios file tree =
  Node.fold
    (fun path (n : Node.t) acc ->
      if n.kind = Node.kind_directive || n.kind = Node.kind_record
         || n.kind = Node.kind_element then
        Scenario.make ~id:"" ~class_name:"typo/delete-directive"
          ~description:
            (Printf.sprintf "delete %s %S at %s:%s" n.kind n.name file
               (Path.to_string path))
          (Scenario.edit_in_file ~file (fun t -> Node.delete t path))
        :: acc
      else acc)
    tree []
  |> List.rev

(* Attributes that carry real configuration text a typo can land in:
   tinydns colon-separated fields, zone record types and TTLs, and XML
   element attributes.  Provenance and formatting attributes are not
   typing surfaces. *)
let is_field_attr (node : Node.t) (key, value) =
  value <> ""
  &&
  if node.kind = Node.kind_record then
    (String.length key >= 2 && key.[0] = 'f'
     && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub key 1 (String.length key - 1)))
    || key = "type" || key = "ttl"
  else node.kind = Node.kind_element

let typo_scenario ~pool_of ~file ~path ~part rng (node : Node.t) =
  let target =
    match part with
    | `Name -> if node.name = "" then None else Some (`Name, node.name)
    | `Value ->
      (match node.value with
       | Some w -> Some (`Value, w)
       | None ->
         (* fall back to an attribute-carried value *)
         (match Rng.pick_opt rng (List.filter (is_field_attr node) node.attrs) with
          | Some (key, w) -> Some (`Attr key, w)
          | None -> None))
  in
  match target with
  | None -> None
  | Some (slot, w) ->
    (match Typo.draw_any rng (pool_of w) with
     | None -> None
     | Some (mutated, what) ->
       let mutated_node =
         match slot with
         | `Name -> { node with Node.name = mutated }
         | `Value -> { node with Node.value = Some mutated }
         | `Attr key -> Node.set_attr node key mutated
       in
       let part_name = match part with `Name -> "name" | `Value -> "value" in
       Some
         (Scenario.make ~id:""
            ~class_name:(Printf.sprintf "typo/%s" part_name)
            ~description:
              (Printf.sprintf "%s of %S (%s) at %s:%s" what node.name part_name file
                 (Path.to_string path))
            (Scenario.edit_in_file ~file (fun t -> Node.replace t path mutated_node))))

let section_typo_scenarios ~pool_of ~rng ~faultload ~file ~part directives =
  let eligible =
    match part with
    | `Name -> List.filter (fun (_, (n : Node.t)) -> n.name <> "") directives
    | `Value ->
      List.filter
        (fun (_, (n : Node.t)) ->
          n.value <> None || List.exists (is_field_attr n) n.attrs)
        directives
  in
  let chosen = Rng.sample rng faultload.directives_per_section eligible in
  List.concat_map
    (fun (path, node) ->
      List.init faultload.typos_per_directive (fun _ ->
          typo_scenario ~pool_of ~file ~path ~part rng node)
      |> List.filter_map Fun.id)
    chosen

let typo_scenarios ~rng ~faultload (sut : Suts.Sut.t) set =
  ignore sut;
  (* each distinct word's typo pool is built once per call, then shared
     by every draw on it *)
  let pools = Hashtbl.create 64 in
  let pool_of w =
    match Hashtbl.find_opt pools w with
    | Some p -> p
    | None ->
      let p = Typo.pool w in
      Hashtbl.add pools w p;
      p
  in
  Config_set.to_list set
  |> List.concat_map (fun (file, tree) ->
         let deletions =
           if faultload.delete_directives then deletion_scenarios file tree else []
         in
         let sections = sections_of tree in
         (* zone-style files carry records instead of directives; the
            whole file counts as one section of records *)
         let records =
           Node.find_all (fun n -> n.Node.kind = Node.kind_record) tree
         in
         let elements =
           Node.find_all (fun n -> n.Node.kind = Node.kind_element) tree
         in
         let sections =
           sections
           @ (if records = [] then [] else [ ([], records) ])
           @ (if elements = [] then [] else [ ([], elements) ])
         in
         let typos part =
           List.concat_map
             (fun (_, directives) ->
               section_typo_scenarios ~pool_of ~rng ~faultload ~file ~part directives)
             sections
         in
         deletions @ typos `Name @ typos `Value)
  |> Scenario.relabel_ids ~prefix:"typo"

let plugin ~faultload sut =
  Errgen.Plugin.make ~name:(Printf.sprintf "typo-%s" sut.Suts.Sut.sut_name)
    ~describe:"spelling mistakes in directive names and values, plus deletions"
    (fun ~rng set -> typo_scenarios ~rng ~faultload sut set)
