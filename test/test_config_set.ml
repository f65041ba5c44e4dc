module Config_set = Conftree.Config_set
module Node = Conftree.Node

let tree1 = Node.root [ Node.directive "a" ]
let tree2 = Node.root [ Node.directive "b" ]

let test_of_list_order () =
  let s = Config_set.of_list [ ("x", tree1); ("y", tree2) ] in
  Alcotest.(check (list string)) "insertion order" [ "x"; "y" ] (Config_set.names s)

let test_of_list_replaces () =
  let s = Config_set.of_list [ ("x", tree1); ("x", tree2) ] in
  Alcotest.(check int) "one binding" 1 (List.length (Config_set.names s));
  Alcotest.(check bool) "last wins" true
    (match Config_set.find s "x" with Some t -> Node.equal t tree2 | None -> false)

let test_find () =
  let s = Config_set.of_list [ ("x", tree1) ] in
  Alcotest.(check bool) "present" true (Config_set.find s "x" <> None);
  Alcotest.(check bool) "absent" true (Config_set.find s "nope" = None)

let test_update () =
  let s = Config_set.of_list [ ("x", tree1) ] in
  (match Config_set.update s "x" (fun t -> Node.delete t [ 0 ]) with
   | None -> Alcotest.fail "update failed"
   | Some s' ->
     (match Config_set.find s' "x" with
      | Some t -> Alcotest.(check int) "edited" 1 (Node.fold (fun _ _ n -> n + 1) t 0)
      | None -> Alcotest.fail "lost file"));
  Alcotest.(check bool) "missing file" true
    (Config_set.update s "nope" (fun t -> Some t) = None);
  Alcotest.(check bool) "failing edit" true
    (Config_set.update s "x" (fun _ -> None) = None)

let test_map_and_equal () =
  let s = Config_set.of_list [ ("x", tree1); ("y", tree2) ] in
  let s' = Config_set.map (fun _ t -> t) s in
  Alcotest.(check bool) "identity map equal" true (Config_set.equal s s');
  let s'' = Config_set.map (fun _ _ -> Node.root []) s in
  Alcotest.(check bool) "different trees differ" false (Config_set.equal s s'')

(* The grouping before it took one pass: each name once, with
   [List.mem], then one filter over every site per name.  Kept as the
   oracle of [Config_set.cross_file_duplicates]. *)
let reference_cross_file_duplicates ~kind ~canon t =
  let sites =
    Config_set.fold_nodes
      (fun file path (n : Node.t) acc ->
        if n.kind = kind && List.length path = 1 then
          (canon n.name, (file, path)) :: acc
        else acc)
      t []
    |> List.rev
  in
  let names =
    List.fold_left
      (fun acc (name, _) -> if List.mem name acc then acc else name :: acc)
      [] sites
    |> List.rev
  in
  List.filter_map
    (fun name ->
      let occs = List.filter (fun (n, _) -> n = name) sites in
      let files = List.sort_uniq compare (List.map (fun (_, (f, _)) -> f) occs) in
      if List.length files >= 2 then Some (name, List.map snd occs) else None)
    names

let same_duplicates set =
  let kind = Node.kind_directive and canon = String.lowercase_ascii in
  Config_set.cross_file_duplicates ~kind ~canon set
  = reference_cross_file_duplicates ~kind ~canon set

(* sets of up to four files over a few names in mixed case, with
   sections, so that names repeat within and across files *)
let config_set_gen =
  QCheck2.Gen.(
    let directive =
      map (fun name -> Node.directive name) (oneofl [ "Listen"; "listen"; "User"; "PidFile"; "x" ])
    in
    let child =
      frequency
        [
          (4, directive);
          (1, map (Node.section "Dir") (list_size (int_range 0 3) directive));
          (1, return (Node.comment "# c"));
        ]
    in
    map Config_set.of_list
      (list_size (int_range 0 4)
         (pair (oneofl [ "a.conf"; "b.conf"; "c.conf" ])
            (map Node.root (list_size (int_range 0 6) child)))))

let prop_cross_file_duplicates =
  QCheck2.Test.make ~count:500 ~name:"cross-file duplicates agree with the reference"
    ~print:(fun set ->
      String.concat "\n"
        (List.map (fun (f, t) -> f ^ ":\n" ^ Node.to_string t) (Config_set.to_list set)))
    config_set_gen
    same_duplicates

(* the apache mutants of the faultloads at seeds 1 and 42, where AP-XFILE
   reads them *)
let test_cross_file_duplicates_apache_mutants () =
  let sut = Suts.Mini_apache.sut in
  let base = Result.get_ok (Conferr.Engine.parse_default_config sut) in
  List.iter
    (fun seed ->
      Conferr.Faultload.journal_scenarios ~seed sut base
      |> List.iteri (fun i (sc : Errgen.Scenario.t) ->
             match sc.apply base with
             | Error _ -> ()
             | Ok mutated -> (
               match Conferr.Engine.serialize_config sut mutated with
               | Error _ -> ()
               | Ok files -> (
                 match Conferr.Engine.parse_config sut files with
                 | Error _ -> ()
                 | Ok set ->
                   if not (same_duplicates set) then
                     Alcotest.failf "seed %d mutant %d: differs" seed i))))
    [ 1; 42 ]

let suite =
  [
    Alcotest.test_case "of_list order" `Quick test_of_list_order;
    Alcotest.test_case "of_list replaces" `Quick test_of_list_replaces;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "update" `Quick test_update;
    Alcotest.test_case "map/equal" `Quick test_map_and_equal;
    QCheck_alcotest.to_alcotest prop_cross_file_duplicates;
    Alcotest.test_case "cross-file duplicates of the apache mutants" `Quick
      test_cross_file_duplicates_apache_mutants;
  ]
