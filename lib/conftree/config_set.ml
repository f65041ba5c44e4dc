type t = (string * Node.t) list

let empty = []

let add t name node =
  if List.mem_assoc name t then
    List.map (fun (n, v) -> if n = name then (n, node) else (n, v)) t
  else t @ [ (name, node) ]

let of_list bindings = List.fold_left (fun acc (n, v) -> add acc n v) empty bindings

let to_list t = t

let find t name = List.assoc_opt name t

let names t = List.map fst t

let update t name f =
  match List.assoc_opt name t with
  | None -> None
  | Some node ->
    (match f node with
     | None -> None
     | Some node' -> Some (add t name node'))

let map f t = List.map (fun (n, v) -> (n, f n v)) t

let fold_nodes f t acc =
  let rec go file path node acc =
    let acc = f file path node acc in
    let acc, _ =
      List.fold_left
        (fun (acc, i) child -> (go file (path @ [ i ]) child acc, i + 1))
        (acc, 0) node.Node.children
    in
    acc
  in
  List.fold_left (fun acc (file, root) -> go file [] root acc) acc t

(* Sites of top-level [kind] nodes (direct children of each file root —
   the scope where cross-file last-one-wins shadowing actually happens)
   grouped by canonical name, document order within the set's file
   order.  One pass groups the sites in a table
   local to the call: per name, its sites latest first and whether they
   span two files; the names are kept in first-appearance order. *)
let cross_file_duplicates ~kind ~canon t =
  let groups = Hashtbl.create 64 in
  let names =
    fold_nodes
      (fun file path (n : Node.t) names ->
        if n.kind = kind && List.length path = 1 then begin
          let name = canon n.name in
          match Hashtbl.find_opt groups name with
          | None ->
            Hashtbl.replace groups name (file, [ (file, path) ], false);
            name :: names
          | Some (first_file, sites, spans) ->
            Hashtbl.replace groups name
              (first_file, (file, path) :: sites, spans || file <> first_file);
            names
        end
        else names)
      t []
  in
  List.fold_left
    (fun acc name ->
      match Hashtbl.find groups name with
      | _, sites, true -> (name, List.rev sites) :: acc
      | _, _, false -> acc)
    [] names

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, v1) (n2, v2) -> n1 = n2 && Node.equal v1 v2) a b
