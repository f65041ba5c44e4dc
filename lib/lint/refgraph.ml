module Config_set = Conftree.Config_set

type edge = {
  e_file : string;
  e_path : Conftree.Path.t;
  e_what : string;
  e_target : string;
}

type t = { g_files : string list; g_edges : edge list }

let build set edges = { g_files = Config_set.names set; g_edges = edges }

let dangling g =
  List.filter (fun e -> not (List.mem e.e_target g.g_files)) g.g_edges

(* Adjacency restricted to files of the set, successors in edge order. *)
let successors g file =
  List.filter_map
    (fun e ->
      if e.e_file = file && List.mem e.e_target g.g_files then Some e.e_target
      else None)
    g.g_edges
  |> List.sort_uniq compare

(* File-level reference cycles, deterministically ordered: every cycle
   is reported once, rotated to start at its smallest member, found by
   DFS from each file in set order. *)
let cycles g =
  let found = ref [] in
  let canonical cycle =
    let smallest = List.fold_left min (List.hd cycle) cycle in
    let rec rotate = function
      | [] -> []
      | x :: tl when x = smallest -> (x :: tl) @ []
      | x :: tl -> rotate (tl @ [ x ])
    in
    rotate cycle
  in
  let record cycle =
    let c = canonical cycle in
    if not (List.mem c !found) then found := c :: !found
  in
  let rec dfs trail file =
    match
      let rec split acc = function
        | [] -> None
        | x :: tl -> if x = file then Some (List.rev (x :: acc)) else split (x :: acc) tl
      in
      split [] (List.rev trail)
    with
    | Some cycle -> record cycle
    | None -> List.iter (dfs (trail @ [ file ])) (successors g file)
  in
  List.iter (fun f -> dfs [] f) g.g_files;
  List.sort compare !found

let summarize g =
  Printf.sprintf "reference graph: %d file(s), %d edge(s), %d dangling, %d cycle(s)"
    (List.length g.g_files) (List.length g.g_edges)
    (List.length (dangling g))
    (List.length (cycles g))
