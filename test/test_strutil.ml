module Strutil = Conferr_util.Strutil

let check_s = Alcotest.(check string)
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

let test_is_prefix () =
  check_b "prefix" true (Strutil.is_prefix ~prefix:"max" "max_connections");
  check_b "equal" true (Strutil.is_prefix ~prefix:"abc" "abc");
  check_b "not prefix" false (Strutil.is_prefix ~prefix:"bx" "abc");
  check_b "longer than string" false (Strutil.is_prefix ~prefix:"abcd" "abc");
  check_b "empty prefix" true (Strutil.is_prefix ~prefix:"" "abc")

let test_drop_prefix () =
  Alcotest.(check (option string))
    "drops" (Some "_connections")
    (Strutil.drop_prefix ~prefix:"max" "max_connections");
  Alcotest.(check (option string)) "none" None (Strutil.drop_prefix ~prefix:"x" "abc")

let test_split_on_first () =
  Alcotest.(check (option (pair string string)))
    "splits at first" (Some ("a", "b=c"))
    (Strutil.split_on_first '=' "a=b=c");
  Alcotest.(check (option (pair string string)))
    "missing separator" None (Strutil.split_on_first '=' "abc")

let test_insert_char () =
  check_s "start" "xabc" (Strutil.insert_char "abc" 0 'x');
  check_s "middle" "axbc" (Strutil.insert_char "abc" 1 'x');
  check_s "end" "abcx" (Strutil.insert_char "abc" 3 'x');
  Alcotest.check_raises "out of range" (Invalid_argument "Strutil.insert_char")
    (fun () -> ignore (Strutil.insert_char "abc" 4 'x'))

let test_delete_char () =
  check_s "start" "bc" (Strutil.delete_char "abc" 0);
  check_s "end" "ab" (Strutil.delete_char "abc" 2);
  Alcotest.check_raises "out of range" (Invalid_argument "Strutil.delete_char")
    (fun () -> ignore (Strutil.delete_char "abc" 3))

let test_replace_char () =
  check_s "replace" "aXc" (Strutil.replace_char "abc" 1 'X')

let test_swap_chars () =
  check_s "swap" "bac" (Strutil.swap_chars "abc" 0);
  check_s "swap end" "acb" (Strutil.swap_chars "abc" 1);
  Alcotest.check_raises "out of range" (Invalid_argument "Strutil.swap_chars")
    (fun () -> ignore (Strutil.swap_chars "abc" 2))

let test_levenshtein () =
  check_i "identical" 0 (Strutil.levenshtein "kitten" "kitten");
  check_i "classic" 3 (Strutil.levenshtein "kitten" "sitting");
  check_i "empty" 5 (Strutil.levenshtein "" "hello");
  check_i "single sub" 1 (Strutil.levenshtein "port" "pork")

let test_damerau () =
  check_i "transposition is one slip" 1 (Strutil.damerau_levenshtein "prot" "port");
  check_i "plain distance agrees otherwise" 1 (Strutil.damerau_levenshtein "port" "pork");
  check_i "identical" 0 (Strutil.damerau_levenshtein "listen" "listen");
  check_i "empty" 4 (Strutil.damerau_levenshtein "" "port")

let test_lines_unlines () =
  Alcotest.(check (list string)) "basic" [ "a"; "b" ] (Strutil.lines "a\nb\n");
  Alcotest.(check (list string)) "no trailing" [ "a"; "b" ] (Strutil.lines "a\nb");
  Alcotest.(check (list string)) "empty middle" [ "a"; ""; "b" ] (Strutil.lines "a\n\nb");
  Alcotest.(check (list string)) "empty text" [] (Strutil.lines "");
  check_s "unlines" "a\nb\n" (Strutil.unlines [ "a"; "b" ]);
  check_s "unlines empty" "" (Strutil.unlines [])

let test_pad_right () =
  check_s "pads" "ab   " (Strutil.pad_right 5 "ab");
  check_s "no-op when long" "abcdef" (Strutil.pad_right 3 "abcdef")

let test_contains_substring () =
  check_b "found" true (Strutil.contains_substring ~needle:"ell" "hello");
  check_b "missing" false (Strutil.contains_substring ~needle:"xyz" "hello");
  check_b "empty needle" true (Strutil.contains_substring ~needle:"" "hello");
  check_b "needle longer" false (Strutil.contains_substring ~needle:"hello!" "hello")

let test_repeat () =
  check_s "three" "ababab" (Strutil.repeat 3 "ab");
  check_s "zero" "" (Strutil.repeat 0 "ab")

let prop_insert_delete_inverse =
  QCheck2.Test.make ~name:"strutil: delete undoes insert"
    QCheck2.Gen.(pair (string_size (int_range 1 20)) (pair (int_range 0 20) printable))
    (fun (s, (i, c)) ->
      QCheck2.assume (i <= String.length s);
      Strutil.delete_char (Strutil.insert_char s i c) i = s)

let prop_damerau_bounded_by_levenshtein =
  QCheck2.Test.make ~name:"strutil: damerau <= levenshtein"
    QCheck2.Gen.(pair (string_size (int_range 0 10)) (string_size (int_range 0 10)))
    (fun (a, b) -> Strutil.damerau_levenshtein a b <= Strutil.levenshtein a b)

(* The distance as it was written before it kept three rows of ints:
   the full matrix and the polymorphic [min].  The oracle for the
   rewrite. *)
let oracle_damerau_levenshtein a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      d.(i).(j) <-
        min (min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + cost);
      if i > 1 && j > 1 && a.[i - 1] = b.[j - 2] && a.[i - 2] = b.[j - 1] then
        d.(i).(j) <- min d.(i).(j) (d.(i - 2).(j - 2) + 1)
    done
  done;
  d.(la).(lb)

let prop_damerau_matches_oracle =
  let open QCheck2.Gen in
  (* a small alphabet so that characters match and transpose often,
     next to arbitrary bytes, those >= 0x80 included *)
  let chars = oneof [ char_range 'a' 'd'; char_range '\x80' '\xff'; char ] in
  let str n = string_size ~gen:chars n in
  let transposed =
    let* s = str (int_range 2 20) in
    let* i = int_range 0 (String.length s - 2) in
    let* other = str (int_range 0 3) in
    return (s, Strutil.swap_chars s i ^ other)
  in
  QCheck2.Test.make ~count:400 ~name:"strutil: damerau matches the matrix oracle"
    ~print:QCheck2.Print.(pair string string)
    (oneof
       [
         pair (str (int_range 0 12)) (str (int_range 0 12));
         map (fun s -> (s, s)) (str (int_range 0 20));
         transposed;
         map (fun s -> ("", s)) (str (int_range 0 300));
         map (fun s -> (s, "")) (str (int_range 0 300));
         pair (str (int_range 250 300)) (str (int_range 250 300));
       ])
    (fun (a, b) ->
      Strutil.damerau_levenshtein a b = oracle_damerau_levenshtein a b
      && Strutil.damerau_levenshtein b a = oracle_damerau_levenshtein b a)

let prop_levenshtein_symmetric =
  QCheck2.Test.make ~name:"strutil: levenshtein is symmetric"
    QCheck2.Gen.(pair (string_size (int_range 0 12)) (string_size (int_range 0 12)))
    (fun (a, b) -> Strutil.levenshtein a b = Strutil.levenshtein b a)

let prop_swap_involution =
  QCheck2.Test.make ~name:"strutil: swap_chars is an involution"
    QCheck2.Gen.(pair (string_size (int_range 2 20)) (int_range 0 18))
    (fun (s, i) ->
      QCheck2.assume (i + 1 < String.length s);
      Strutil.swap_chars (Strutil.swap_chars s i) i = s)

let prop_equal_ci =
  QCheck2.Test.make ~count:500 ~name:"equal_ci: equality of the lowercased strings"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'A'; 'b'; 'B'; '1'; '$' ]) (int_range 0 4))
        (string_size ~gen:(oneofl [ 'a'; 'A'; 'b'; 'B'; '1'; '$' ]) (int_range 0 4)))
    (fun (a, b) ->
      Strutil.equal_ci a b = (String.lowercase_ascii a = String.lowercase_ascii b))

let suite =
  [
    Alcotest.test_case "is_prefix" `Quick test_is_prefix;
    Alcotest.test_case "drop_prefix" `Quick test_drop_prefix;
    Alcotest.test_case "split_on_first" `Quick test_split_on_first;
    Alcotest.test_case "insert_char" `Quick test_insert_char;
    Alcotest.test_case "delete_char" `Quick test_delete_char;
    Alcotest.test_case "replace_char" `Quick test_replace_char;
    Alcotest.test_case "swap_chars" `Quick test_swap_chars;
    Alcotest.test_case "levenshtein" `Quick test_levenshtein;
    Alcotest.test_case "damerau-levenshtein" `Quick test_damerau;
    Alcotest.test_case "lines/unlines" `Quick test_lines_unlines;
    Alcotest.test_case "pad_right" `Quick test_pad_right;
    Alcotest.test_case "contains_substring" `Quick test_contains_substring;
    Alcotest.test_case "repeat" `Quick test_repeat;
    QCheck_alcotest.to_alcotest prop_insert_delete_inverse;
    QCheck_alcotest.to_alcotest prop_levenshtein_symmetric;
    QCheck_alcotest.to_alcotest prop_damerau_bounded_by_levenshtein;
    QCheck_alcotest.to_alcotest prop_swap_involution;
    QCheck_alcotest.to_alcotest prop_damerau_matches_oracle;
    QCheck_alcotest.to_alcotest prop_equal_ci;
  ]
