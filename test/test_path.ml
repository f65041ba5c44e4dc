module Path = Conftree.Path

let path = Alcotest.(list int)

let test_parent () =
  Alcotest.(check (option (pair path int)))
    "root has no parent" None (Path.parent []);
  Alcotest.(check (option (pair path int)))
    "splits last" (Some ([ 1; 2 ], 3))
    (Path.parent [ 1; 2; 3 ])

let test_child () = Alcotest.check path "extends" [ 1; 2 ] (Path.child [ 1 ] 2)

let test_prefix () =
  Alcotest.(check bool) "is prefix" true (Path.is_prefix ~prefix:[ 1 ] [ 1; 2 ]);
  Alcotest.(check bool) "self prefix" true (Path.is_prefix ~prefix:[ 1 ] [ 1 ]);
  Alcotest.(check bool) "not prefix" false (Path.is_prefix ~prefix:[ 2 ] [ 1; 2 ])

let test_compare_document_order () =
  Alcotest.(check bool) "parent before child" true (Path.compare [ 1 ] [ 1; 0 ] < 0);
  Alcotest.(check bool) "sibling order" true (Path.compare [ 1; 0 ] [ 1; 1 ] < 0);
  Alcotest.(check int) "equal" 0 (Path.compare [ 2; 3 ] [ 2; 3 ])

let check_adjust_delete name deleted p expected =
  Alcotest.(check (option path)) name expected (Path.adjust_after_delete ~deleted p)

let test_adjust_after_delete () =
  check_adjust_delete "deleted node itself" [ 1 ] [ 1 ] None;
  check_adjust_delete "inside deleted subtree" [ 1 ] [ 1; 0 ] None;
  check_adjust_delete "later sibling shifts" [ 1 ] [ 2 ] (Some [ 1 ]);
  check_adjust_delete "earlier sibling unchanged" [ 1 ] [ 0 ] (Some [ 0 ]);
  check_adjust_delete "unrelated branch" [ 1; 0 ] [ 2; 5 ] (Some [ 2; 5 ]);
  check_adjust_delete "ancestor survives" [ 1; 0 ] [ 1 ] (Some [ 1 ]);
  check_adjust_delete "deep shift" [ 1; 0 ] [ 1; 2; 3 ] (Some [ 1; 1; 3 ]);
  check_adjust_delete "whole tree" [] [ 0 ] None

let test_adjust_after_insert () =
  Alcotest.check path "pushes later siblings" [ 2 ]
    (Path.adjust_after_insert ~inserted:[ 1 ] [ 1 ]);
  Alcotest.check path "earlier sibling unchanged" [ 0 ]
    (Path.adjust_after_insert ~inserted:[ 1 ] [ 0 ]);
  Alcotest.check path "deep shift" [ 1; 3; 2 ]
    (Path.adjust_after_insert ~inserted:[ 1; 2 ] [ 1; 2; 2 ])

let test_to_string () =
  Alcotest.(check string) "root" "/" (Path.to_string []);
  Alcotest.(check string) "nested" "/0/3/1" (Path.to_string [ 0; 3; 1 ])

let suite =
  [
    Alcotest.test_case "parent" `Quick test_parent;
    Alcotest.test_case "child" `Quick test_child;
    Alcotest.test_case "prefix" `Quick test_prefix;
    Alcotest.test_case "compare" `Quick test_compare_document_order;
    Alcotest.test_case "adjust after delete" `Quick test_adjust_after_delete;
    Alcotest.test_case "adjust after insert" `Quick test_adjust_after_insert;
    Alcotest.test_case "to_string" `Quick test_to_string;
  ]
