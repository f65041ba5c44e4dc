module Suggest = Conferr.Suggest
module Rng = Conferr_util.Rng

let vocab = Suts.Vocabulary.mysql

let test_nearest () =
  Alcotest.(check (option (pair string int)))
    "one-letter typo" (Some ("port", 1))
    (Suggest.nearest ~vocabulary:vocab "prot");
  Alcotest.(check (option (pair string int)))
    "exact" (Some ("port", 0))
    (Suggest.nearest ~vocabulary:vocab "port");
  Alcotest.(check (option (pair string int))) "empty vocabulary" None
    (Suggest.nearest ~vocabulary:[] "port")

let test_nearest_tie_break () =
  match Suggest.nearest ~vocabulary:[ "bb"; "ba" ] "b" with
  | Some (name, 1) -> Alcotest.(check string) "lexicographic" "ba" name
  | _ -> Alcotest.fail "expected distance-1 match"

let test_suggestions_ordering () =
  (* the did-you-mean answer is the closest name, at its distance *)
  match Suggest.nearest ~vocabulary:vocab "max_connection" with
  | Some (first, d) ->
    Alcotest.(check string) "closest first" "max_connections" first;
    Alcotest.(check int) "its distance" d
      (Conferr_util.Strutil.damerau_levenshtein "max_connection" first);
    Alcotest.(check bool) "bounded distance" true (d <= 2)
  | None -> Alcotest.fail "expected a suggestion"

(* The recovery rate of each vocabulary word, as [recoverability]
   measures it. *)
let rates = lazy (Suggest.recoverability ~vocabulary:vocab ~rng:(Rng.create 9) ())

let recovery_rate word = List.assoc word (Lazy.force rates).Suggest.per_word

let test_recovery_rate_distinct_names () =
  let rate = recovery_rate "key_buffer_size" in
  Alcotest.(check bool)
    (Printf.sprintf "long distinctive names recover well (%.2f)" rate)
    true (rate > 0.8)

let test_recovery_rate_short_name () =
  (* one-letter typos of a 4-letter word are often nearer to nothing
     unique; the rate is meaningfully below the long-name case *)
  let long_rate = recovery_rate "myisam_sort_buffer_size" in
  let short_rate = recovery_rate "port" in
  Alcotest.(check bool)
    (Printf.sprintf "short %.2f <= long %.2f" short_rate long_rate)
    true (short_rate <= long_rate)

let test_recoverability_summary () =
  let rng = Rng.create 11 in
  let s = Suggest.recoverability ~vocabulary:vocab ~rng ~samples:10 () in
  Alcotest.(check int) "one row per word" (List.length vocab)
    (List.length s.Suggest.per_word);
  Alcotest.(check bool) "mean in range" true (s.Suggest.mean >= 0. && s.Suggest.mean <= 1.);
  Alcotest.(check bool) "render mentions mean" true
    (Conferr_util.Strutil.contains_substring ~needle:"did-you-mean"
       (Suggest.render s))

let test_vocabularies () =
  Alcotest.(check bool) "mysql non-empty" true (Suts.Vocabulary.mysql <> []);
  Alcotest.(check bool) "apache has LoadModule" true
    (List.mem "LoadModule" (Suts.Vocabulary.for_sut Suts.Mini_apache.sut));
  Alcotest.(check (list string)) "dns suts name-free" []
    (Suts.Vocabulary.for_sut Suts.Mini_bind.sut);
  Alcotest.(check bool) "for_sut postgres" true
    (Suts.Vocabulary.for_sut Suts.Mini_pg.sut = Suts.Vocabulary.postgres)

(* The nearest name as found before candidates the length difference
   rules out were skipped: every candidate measured. *)
let oracle_nearest ~vocabulary word =
  List.fold_left
    (fun best candidate ->
      let d = Conferr_util.Strutil.damerau_levenshtein word candidate in
      match best with
      | None -> Some (candidate, d)
      | Some (b, bd) ->
        if d < bd || (d = bd && candidate < b) then Some (candidate, d) else best)
    None vocabulary

let prop_nearest_matches_oracle =
  let open QCheck2.Gen in
  let word = string_size ~gen:(char_range 'a' 'e') (int_range 0 9) in
  let vocabularies =
    oneofl [ Suts.Vocabulary.mysql; Suts.Vocabulary.postgres; Suts.Vocabulary.for_sut Suts.Mini_apache.sut ]
  in
  QCheck2.Test.make ~count:300 ~name:"suggest: nearest matches measuring every candidate"
    ~print:QCheck2.Print.(pair (list string) string)
    (oneof
       [
         pair (list_size (int_range 0 8) word) word;
         (* typos of real vocabulary words, as the Unknown rules see them *)
         (let* vocabulary = vocabularies in
          let* w = oneofl vocabulary in
          let* i = int_range 0 (String.length w - 1) in
          let* c = char_range 'a' 'z' in
          return (vocabulary, Conferr_util.Strutil.replace_char w i c));
       ])
    (fun (vocabulary, w) -> Suggest.nearest ~vocabulary w = oracle_nearest ~vocabulary w)

let suite =
  [
    Alcotest.test_case "nearest" `Quick test_nearest;
    Alcotest.test_case "nearest tie break" `Quick test_nearest_tie_break;
    Alcotest.test_case "suggestions ordering" `Quick test_suggestions_ordering;
    Alcotest.test_case "recovery long names" `Quick test_recovery_rate_distinct_names;
    Alcotest.test_case "recovery short vs long" `Quick test_recovery_rate_short_name;
    Alcotest.test_case "recoverability summary" `Quick test_recoverability_summary;
    Alcotest.test_case "vocabularies" `Quick test_vocabularies;
    QCheck_alcotest.to_alcotest prop_nearest_matches_oracle;
  ]
