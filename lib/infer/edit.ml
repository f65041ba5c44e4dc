module Node = Conftree.Node
module Config_set = Conftree.Config_set

type kind =
  | Deleted
  | Inserted
  | Renamed of { from_ : string; to_ : string }
  | Value_changed of { from_ : string; to_ : string }
  | Changed

type t = {
  file : string;
  section : string;
  node_kind : string;
  name : string;
  kind : kind;
}

let edit ~file ~section (node : Node.t) kind =
  { file; section; node_kind = node.kind; name = node.name; kind }

(* Section scope for the children of [node]. *)
let child_section (node : Node.t) section =
  if node.kind = Node.kind_section then String.lowercase_ascii node.name
  else section

let rec diff_nodes ~file ~section acc (b : Node.t) (m : Node.t) =
  if Node.equal b m then acc
  else if b.kind = m.kind && b.name = m.name && b.value = m.value then
    (* same head: the difference is among the children *)
    diff_children ~file ~section:(child_section b section) acc b.children
      m.children
  else if b.kind = m.kind && b.children = m.children then
    if b.name <> m.name && b.value = m.value then
      edit ~file ~section b (Renamed { from_ = b.name; to_ = m.name }) :: acc
    else if b.name = m.name then
      edit ~file ~section b
        (Value_changed
           {
             from_ = Node.value_or ~default:"" b;
             to_ = Node.value_or ~default:"" m;
           })
      :: acc
    else edit ~file ~section b Changed :: acc
  else edit ~file ~section b Changed :: acc

and diff_children ~file ~section acc bs ms =
  match (bs, ms) with
  | [], [] -> acc
  | [], m :: mt ->
    diff_children ~file ~section (edit ~file ~section m Inserted :: acc) [] mt
  | b :: bt, [] ->
    diff_children ~file ~section (edit ~file ~section b Deleted :: acc) bt []
  | b :: bt, m :: mt ->
    if Node.equal b m then diff_children ~file ~section acc bt mt
    else if bt = ms then edit ~file ~section b Deleted :: acc
    else if bs = mt then edit ~file ~section m Inserted :: acc
    else
      let acc = diff_nodes ~file ~section acc b m in
      diff_children ~file ~section acc bt mt

let diff ~base ~mutated =
  let mutated_files = Config_set.to_list mutated in
  let acc =
    List.fold_left
      (fun acc (file, broot) ->
        match Config_set.find mutated file with
        | Some mroot -> diff_nodes ~file ~section:"" acc broot mroot
        | None -> edit ~file ~section:"" broot Deleted :: acc)
      [] (Config_set.to_list base)
  in
  let acc =
    List.fold_left
      (fun acc (file, mroot) ->
        if Config_set.find base file = None then
          edit ~file ~section:"" mroot Inserted :: acc
        else acc)
      acc mutated_files
  in
  List.rev acc
