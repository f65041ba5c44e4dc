module Layout = Keyboard.Layout

let qwerty = Layout.us_qwerty

let test_find () =
  (match Layout.find qwerty 'a' with
   | Some (k, Layout.Plain) -> Alcotest.(check char) "key" 'a' k.Layout.unshifted
   | _ -> Alcotest.fail "expected plain 'a'");
  (match Layout.find qwerty 'A' with
   | Some (k, Layout.Shifted) -> Alcotest.(check char) "key" 'a' k.Layout.unshifted
   | _ -> Alcotest.fail "expected shifted 'A'");
  Alcotest.(check bool) "untypeable" true (Layout.find qwerty '\200' = None)

let test_neighbors_plain () =
  let n = Layout.neighbors qwerty 'g' in
  List.iter
    (fun c ->
      if not (List.mem c n) then
        Alcotest.failf "'%c' should neighbour 'g' (got %s)" c
          (String.concat "" (List.map (String.make 1) n)))
    [ 'f'; 'h'; 't'; 'y'; 'v'; 'b' ];
  Alcotest.(check bool) "no self" false (List.mem 'g' n);
  Alcotest.(check bool) "far keys excluded" false (List.mem 'p' n)

let test_neighbors_preserve_modifier () =
  (* neighbours of an uppercase letter are uppercase (same Shift) *)
  let n = Layout.neighbors qwerty 'G' in
  Alcotest.(check bool) "has F" true (List.mem 'F' n);
  Alcotest.(check bool) "no lowercase" true
    (List.for_all (fun c -> not (c >= 'a' && c <= 'z')) n)

let test_neighbors_digits () =
  let n = Layout.neighbors qwerty '5' in
  Alcotest.(check bool) "digit neighbours" true (List.mem '4' n && List.mem '6' n);
  Alcotest.(check bool) "letter row below" true (List.mem 'r' n || List.mem 't' n)

let test_neighbors_sorted_unique () =
  let n = Layout.neighbors qwerty 'k' in
  Alcotest.(check (list char)) "sorted" (List.sort_uniq Char.compare n) n

let test_shift_variant () =
  Alcotest.(check (option char)) "letter" (Some 'A') (Layout.shift_variant qwerty 'a');
  Alcotest.(check (option char)) "upper" (Some 'a') (Layout.shift_variant qwerty 'A');
  Alcotest.(check (option char)) "digit" (Some '%') (Layout.shift_variant qwerty '5');
  Alcotest.(check (option char)) "symbol" (Some '5') (Layout.shift_variant qwerty '%');
  Alcotest.(check (option char)) "unknown" None (Layout.shift_variant qwerty '\200')

let test_can_type_all_ascii_letters () =
  String.iter
    (fun c ->
      if not (Layout.can_type qwerty c) then Alcotest.failf "cannot type %C" c)
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-=/."

let test_all_chars () =
  let chars = Layout.all_chars qwerty in
  Alcotest.(check bool) "contains letters and symbols" true
    (List.mem 'q' chars && List.mem '~' chars);
  Alcotest.(check (list char)) "sorted unique" (List.sort_uniq Char.compare chars) chars

let test_qwertz_differs () =
  let qwertz = Layout.ch_qwertz in
  (* 'z' and 'y' swap rows between the layouts *)
  let row_of layout c =
    match Layout.find layout c with Some (k, _) -> k.Layout.row | None -> -1
  in
  Alcotest.(check int) "z top row on qwertz" 1 (row_of qwertz 'z');
  Alcotest.(check int) "z bottom row on qwerty" 3 (row_of qwerty 'z');
  Alcotest.(check bool) "different neighbours for t" true
    (Layout.neighbors qwerty 't' <> Layout.neighbors qwertz 't')

let test_make_validates () =
  Alcotest.check_raises "mismatched rows"
    (Invalid_argument "Layout.make: row strings must have equal length") (fun () ->
      ignore (Layout.make ~name:"bad" [ (0, 0.0, "ab", "A") ]))

(* The neighbour table answers as a scan does: every byte on the three
   layouts, looked up twice (computed, then read back), against a scan
   at a radius that no key distance separates from the default. *)
let test_neighbor_table_matches_scan () =
  List.iter
    (fun layout ->
      for code = 0 to 255 do
        let c = Char.chr code in
        let scan = Layout.neighbors ~radius:(1.35 +. 1e-9) layout c in
        Alcotest.(check (list char)) (Printf.sprintf "%C first" c) scan (Layout.neighbors layout c);
        Alcotest.(check (list char)) (Printf.sprintf "%C again" c) scan (Layout.neighbors layout c)
      done)
    Layout.[ us_qwerty; us_dvorak; ch_qwertz ]

let prop_shift_involution =
  QCheck2.Test.make ~name:"keyboard: shift_variant is an involution on letters"
    QCheck2.Gen.(char_range 'a' 'z')
    (fun c ->
      match Layout.shift_variant qwerty c with
      | Some s -> Layout.shift_variant qwerty s = Some c
      | None -> false)

let prop_neighbors_symmetric =
  QCheck2.Test.make ~name:"keyboard: lowercase adjacency is symmetric"
    QCheck2.Gen.(pair (char_range 'a' 'z') (char_range 'a' 'z'))
    (fun (a, b) ->
      let n_a = Layout.neighbors qwerty a and n_b = Layout.neighbors qwerty b in
      List.mem b n_a = List.mem a n_b)

let suite =
  [
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "neighbors plain" `Quick test_neighbors_plain;
    Alcotest.test_case "neighbors preserve modifier" `Quick
      test_neighbors_preserve_modifier;
    Alcotest.test_case "neighbors digits" `Quick test_neighbors_digits;
    Alcotest.test_case "neighbors sorted unique" `Quick test_neighbors_sorted_unique;
    Alcotest.test_case "shift variant" `Quick test_shift_variant;
    Alcotest.test_case "can type ascii" `Quick test_can_type_all_ascii_letters;
    Alcotest.test_case "all_chars" `Quick test_all_chars;
    Alcotest.test_case "qwertz differs" `Quick test_qwertz_differs;
    Alcotest.test_case "make validates" `Quick test_make_validates;
    Alcotest.test_case "neighbour table matches a scan" `Quick
      test_neighbor_table_matches_scan;
    QCheck_alcotest.to_alcotest prop_shift_involution;
    QCheck_alcotest.to_alcotest prop_neighbors_symmetric;
  ]
