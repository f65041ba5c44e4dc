module Node = Conftree.Node

(* The number of nodes in a tree, as [Node.fold] visits them. *)
let size t = Node.fold (fun _ _ n -> n + 1) t 0

let sample =
  Node.root
    [
      Node.section "alpha"
        [
          Node.directive ~value:"1" "a1";
          Node.comment "# hello";
          Node.directive ~value:"2" "a2";
        ];
      Node.section "beta" [ Node.directive "b1" ];
      Node.blank;
    ]

let node_t = Alcotest.testable Node.pp Node.equal

let test_constructors () =
  let d = Node.directive ~attrs:[ ("k", "v") ] ~value:"x" "name" in
  Alcotest.(check string) "kind" Node.kind_directive d.Node.kind;
  Alcotest.(check (option string)) "value" (Some "x") d.Node.value;
  Alcotest.(check (option string)) "attr" (Some "v") (Node.attr d "k");
  Alcotest.(check (option string)) "missing attr" None (Node.attr d "nope")

let test_set_remove_attr () =
  let d = Node.directive "d" in
  let d = Node.set_attr d "a" "1" in
  let d = Node.set_attr d "a" "2" in
  Alcotest.(check (option string)) "overwrites" (Some "2") (Node.attr d "a");
  Alcotest.(check int) "no duplicate entries" 1 (List.length d.Node.attrs);
  let d = Node.remove_attr d "a" in
  Alcotest.(check (option string)) "removed" None (Node.attr d "a")

let test_size () = Alcotest.(check int) "counts all nodes" 8 (size sample)

let test_get () =
  Alcotest.(check (option node_t)) "root" (Some sample) (Node.get sample []);
  (match Node.get sample [ 0; 2 ] with
   | Some n -> Alcotest.(check string) "deep get" "a2" n.Node.name
   | None -> Alcotest.fail "expected a node");
  Alcotest.(check (option node_t)) "out of range" None (Node.get sample [ 5 ]);
  Alcotest.(check (option node_t)) "too deep" None (Node.get sample [ 2; 0 ])

let test_fold_order () =
  let kinds = Node.fold (fun _ n acc -> n.Node.kind :: acc) sample [] |> List.rev in
  Alcotest.(check (list string)) "pre-order"
    [ "root"; "section"; "directive"; "comment"; "directive"; "section"; "directive";
      "blank" ]
    kinds

let test_find_all () =
  let directives = Node.find_all (fun n -> n.Node.kind = Node.kind_directive) sample in
  Alcotest.(check int) "three directives" 3 (List.length directives);
  let paths = List.map fst directives in
  Alcotest.(check bool) "document order" true
    (paths = List.sort Conftree.Path.compare paths)

let test_update () =
  match Node.update sample [ 0; 0 ] (fun n -> { n with Node.value = Some "9" }) with
  | None -> Alcotest.fail "update failed"
  | Some t ->
    (match Node.get t [ 0; 0 ] with
     | Some n -> Alcotest.(check (option string)) "updated" (Some "9") n.Node.value
     | None -> Alcotest.fail "node vanished")

let test_replace () =
  let fresh = Node.directive "fresh" in
  match Node.replace sample [ 1; 0 ] fresh with
  | None -> Alcotest.fail "replace failed"
  | Some t ->
    (match Node.get t [ 1; 0 ] with
     | Some n -> Alcotest.(check string) "replaced" "fresh" n.Node.name
     | None -> Alcotest.fail "node vanished")

let test_delete () =
  (match Node.delete sample [ 0; 1 ] with
   | None -> Alcotest.fail "delete failed"
   | Some t ->
     Alcotest.(check int) "one fewer node" (size sample - 1) (size t);
     (match Node.get t [ 0; 1 ] with
      | Some n -> Alcotest.(check string) "sibling shifted" "a2" n.Node.name
      | None -> Alcotest.fail "expected shifted sibling"));
  Alcotest.(check (option node_t)) "cannot delete root" None (Node.delete sample []);
  Alcotest.(check (option node_t)) "missing path" None (Node.delete sample [ 9 ])

let test_insert_child () =
  let d = Node.directive "new" in
  (match Node.insert_child sample ~parent:[ 1 ] ~index:0 d with
   | None -> Alcotest.fail "insert failed"
   | Some t ->
     (match Node.get t [ 1; 0 ] with
      | Some n -> Alcotest.(check string) "inserted first" "new" n.Node.name
      | None -> Alcotest.fail "missing"));
  (* index clamping *)
  match Node.insert_child sample ~parent:[ 1 ] ~index:99 d with
  | None -> Alcotest.fail "clamped insert failed"
  | Some t ->
    (match Node.get t [ 1; 1 ] with
     | Some n -> Alcotest.(check string) "appended" "new" n.Node.name
     | None -> Alcotest.fail "missing")

let test_append_child () =
  match Node.append_child sample ~parent:[ 0 ] (Node.directive "tail") with
  | None -> Alcotest.fail "append failed"
  | Some t ->
    (match Node.get t [ 0; 3 ] with
     | Some n -> Alcotest.(check string) "at end" "tail" n.Node.name
     | None -> Alcotest.fail "missing")

let test_duplicate () =
  match Node.duplicate sample [ 0; 0 ] with
  | None -> Alcotest.fail "duplicate failed"
  | Some t ->
    let a = Node.get t [ 0; 0 ] and b = Node.get t [ 0; 1 ] in
    (match (a, b) with
     | Some a, Some b -> Alcotest.check node_t "copy follows original" a b
     | _ -> Alcotest.fail "missing nodes")

let test_move_across_sections () =
  match Node.move sample ~src:[ 0; 0 ] ~dst_parent:[ 1 ] ~index:0 with
  | None -> Alcotest.fail "move failed"
  | Some t ->
    Alcotest.(check int) "size preserved" (size sample) (size t);
    (match Node.get t [ 1; 0 ] with
     | Some n -> Alcotest.(check string) "arrived" "a1" n.Node.name
     | None -> Alcotest.fail "missing");
    (match Node.get t [ 0; 0 ] with
     | Some n -> Alcotest.(check string) "source shifted" "comment" n.Node.kind
     | None -> Alcotest.fail "missing")

let test_move_within_section_later () =
  (* moving a1 after a2 within the same parent: index accounting must
     compensate for the deletion *)
  match Node.move sample ~src:[ 0; 0 ] ~dst_parent:[ 0 ] ~index:3 with
  | None -> Alcotest.fail "move failed"
  | Some t ->
    let names =
      match Node.get t [ 0 ] with
      | Some n -> List.map (fun (c : Node.t) -> c.name) n.children
      | None -> []
    in
    Alcotest.(check (list string)) "order" [ ""; "a2"; "a1" ] names

let test_move_into_own_subtree_refused () =
  Alcotest.(check (option node_t))
    "refused" None
    (Node.move sample ~src:[ 0 ] ~dst_parent:[ 0; 1 ] ~index:0)

let test_copy () =
  match Node.copy sample ~src:[ 0; 0 ] ~dst_parent:[ 1 ] ~index:1 with
  | None -> Alcotest.fail "copy failed"
  | Some t ->
    Alcotest.(check int) "one more node" (size sample + 1) (size t);
    (match Node.get t [ 1; 1 ] with
     | Some n -> Alcotest.(check string) "copied" "a1" n.Node.name
     | None -> Alcotest.fail "missing")

let test_map_nodes () =
  let upper =
    Node.map_nodes
      (fun n -> { n with Node.name = String.uppercase_ascii n.Node.name })
      sample
  in
  match Node.get upper [ 0 ] with
  | Some n -> Alcotest.(check string) "mapped" "ALPHA" n.Node.name
  | None -> Alcotest.fail "missing"

let test_equal_modulo_attrs () =
  let a = Node.directive ~attrs:[ ("x", "1") ] "d" in
  let b = Node.directive ~attrs:[ ("y", "2") ] "d" in
  Alcotest.(check bool) "differ with attrs" false (Node.equal a b);
  Alcotest.(check bool) "equal modulo attrs" true (Node.equal_modulo_attrs a b)

(* --- properties --- *)

let prop_delete_shrinks =
  QCheck2.Test.make ~name:"node: delete removes exactly the subtree size"
    QCheck2.Gen.(pair Gen.rooted_tree_gen (int_range 0 1000))
    (fun (tree, pick) ->
      match Gen.non_root_paths tree with
      | [] -> true
      | paths ->
        let path = List.nth paths (pick mod List.length paths) in
        let sub = Option.get (Conftree.Node.get tree path) in
        (match Conftree.Node.delete tree path with
         | None -> false
         | Some t ->
           size t = size tree - size sub))

let prop_get_after_update =
  QCheck2.Test.make ~name:"node: update reaches exactly the addressed node"
    QCheck2.Gen.(pair Gen.rooted_tree_gen (int_range 0 1000))
    (fun (tree, pick) ->
      let paths = Gen.all_paths tree in
      let path = List.nth paths (pick mod List.length paths) in
      let marked =
        Conftree.Node.update tree path (fun n ->
            Conftree.Node.set_attr n "marked" "yes")
      in
      match marked with
      | None -> false
      | Some t ->
        let marked_nodes =
          Conftree.Node.find_all
            (fun n -> Conftree.Node.attr n "marked" = Some "yes")
            t
        in
        List.length marked_nodes = 1 && fst (List.hd marked_nodes) = path)

let prop_duplicate_grows =
  QCheck2.Test.make ~name:"node: duplicate adds exactly the subtree size"
    QCheck2.Gen.(pair Gen.rooted_tree_gen (int_range 0 1000))
    (fun (tree, pick) ->
      match Gen.non_root_paths tree with
      | [] -> true
      | paths ->
        let path = List.nth paths (pick mod List.length paths) in
        let sub = Option.get (Conftree.Node.get tree path) in
        (match Conftree.Node.duplicate tree path with
         | None -> false
         | Some t ->
           size t = size tree + size sub))

let prop_find_first =
  QCheck2.Test.make ~name:"node: find_first is the head of find_all"
    QCheck2.Gen.(pair Gen.rooted_tree_gen Gen.name_gen)
    (fun (tree, name) ->
      let pred (n : Conftree.Node.t) = n.name = name in
      Conftree.Node.find_first pred tree
      = (match Conftree.Node.find_all pred tree with [] -> None | x :: _ -> Some x))

let suite =
  [
    Alcotest.test_case "constructors" `Quick test_constructors;
    Alcotest.test_case "set/remove attr" `Quick test_set_remove_attr;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "get" `Quick test_get;
    Alcotest.test_case "fold order" `Quick test_fold_order;
    Alcotest.test_case "find_all" `Quick test_find_all;
    Alcotest.test_case "update" `Quick test_update;
    Alcotest.test_case "replace" `Quick test_replace;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "insert_child" `Quick test_insert_child;
    Alcotest.test_case "append_child" `Quick test_append_child;
    Alcotest.test_case "duplicate" `Quick test_duplicate;
    Alcotest.test_case "move across sections" `Quick test_move_across_sections;
    Alcotest.test_case "move within section" `Quick test_move_within_section_later;
    Alcotest.test_case "move into own subtree" `Quick test_move_into_own_subtree_refused;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "map_nodes" `Quick test_map_nodes;
    Alcotest.test_case "equal modulo attrs" `Quick test_equal_modulo_attrs;
    QCheck_alcotest.to_alcotest prop_delete_shrinks;
    QCheck_alcotest.to_alcotest prop_get_after_update;
    QCheck_alcotest.to_alcotest prop_duplicate_grows;
    QCheck_alcotest.to_alcotest prop_find_first;
  ]
