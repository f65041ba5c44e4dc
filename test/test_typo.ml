module Typo = Errgen.Typo
module Strutil = Conferr_util.Strutil
module Rng = Conferr_util.Rng

let words_of variants = List.map fst variants

let test_omission () =
  let vs = words_of (Typo.variants Typo.Omission "port") in
  Alcotest.(check (list string)) "all single-char drops"
    [ "ort"; "prt"; "pot"; "por" ]
    vs

let test_omission_short_word () =
  Alcotest.(check (list string)) "single letter is kept" []
    (words_of (Typo.variants Typo.Omission "p"))

let test_insertion_uses_neighbors () =
  let vs = words_of (Typo.variants Typo.Insertion "a") in
  Alcotest.(check bool) "non-empty" true (vs <> []);
  Alcotest.(check bool) "doubling excluded by default (paper model)" false
    (List.mem "aa" vs);
  Alcotest.(check bool) "doubling available opt-in" true
    (List.mem "aa" (words_of (Typo.variants ~include_doubling:true Typo.Insertion "a")));
  List.iter
    (fun w ->
      Alcotest.(check int) "one longer" 2 (String.length w);
      let inserted = if w.[0] = 'a' then w.[1] else w.[0] in
      let neighbours = Keyboard.Layout.neighbors Keyboard.Layout.us_qwerty 'a' in
      Alcotest.(check bool)
        (Printf.sprintf "%c neighbours a" inserted)
        true
        (List.mem inserted neighbours))
    vs

let test_substitution_uses_neighbors () =
  let vs = words_of (Typo.variants Typo.Substitution "ab") in
  List.iter
    (fun w ->
      Alcotest.(check int) "same length" 2 (String.length w);
      Alcotest.(check int) "distance one" 1 (Strutil.levenshtein "ab" w))
    vs;
  let neighbours_a = Keyboard.Layout.neighbors Keyboard.Layout.us_qwerty 'a' in
  Alcotest.(check bool) "first-position substitutions are neighbours" true
    (List.for_all
       (fun w -> w.[1] <> 'b' || List.mem w.[0] neighbours_a)
       vs)

let test_case_alteration () =
  let vs = words_of (Typo.variants Typo.Case_alteration "aB3") in
  Alcotest.(check bool) "flips lower" true (List.mem "AB3" vs);
  Alcotest.(check bool) "flips upper" true (List.mem "ab3" vs);
  Alcotest.(check int) "digits not flipped" 2 (List.length vs)

let test_transposition () =
  let vs = words_of (Typo.variants Typo.Transposition "abc") in
  Alcotest.(check (list string)) "adjacent swaps" [ "bac"; "acb" ] vs

let test_transposition_skips_equal_pair () =
  let vs = words_of (Typo.variants Typo.Transposition "aab") in
  Alcotest.(check (list string)) "identical pair skipped" [ "aba" ] vs

let test_variants_never_include_original () =
  List.iter
    (fun kind ->
      List.iter
        (fun (w, _) ->
          if w = "listen" then
            Alcotest.failf "kind %s produced the original word" (Typo.kind_name kind))
        (Typo.variants kind "listen"))
    Typo.all_kinds

let test_variants_deduplicated () =
  List.iter
    (fun kind ->
      let ws = words_of (Typo.variants kind "abba") in
      Alcotest.(check int)
        (Typo.kind_name kind)
        (List.length (List.sort_uniq compare ws))
        (List.length ws))
    Typo.all_kinds

let test_random_variant_member () =
  let rng = Rng.create 17 in
  for _ = 1 to 50 do
    match Typo.random_variant rng Typo.Substitution "server" with
    | None -> Alcotest.fail "expected a variant"
    | Some (w, _) ->
      let all = words_of (Typo.variants Typo.Substitution "server") in
      Alcotest.(check bool) "member of enumeration" true (List.mem w all)
  done

let test_random_any_exhausts_empty () =
  let rng = Rng.create 17 in
  Alcotest.(check bool) "empty word has no typos" true (Typo.random_any rng "" = None)

let test_random_kind_first () =
  let rng = Rng.create 18 in
  match Typo.random_kind_first rng "value" with
  | None -> Alcotest.fail "expected a typo"
  | Some (w, descr) ->
    Alcotest.(check bool) "differs" true (w <> "value");
    Alcotest.(check bool) "labelled with a kind" true
      (List.exists
         (fun k -> Strutil.is_prefix ~prefix:(Typo.kind_name k) descr)
         Typo.all_kinds)

let test_wordview_scenarios_equivalent_to_direct () =
  (* the two-stage (word view) pipeline and the direct modify path must
     mutate configurations identically *)
  let module Node = Conftree.Node in
  let tree =
    Node.root
      [ Node.section "s" [ Node.directive ~value:"8080" "listen" ] ]
  in
  let set = Conftree.Config_set.of_list [ ("f", tree) ] in
  let via_wordview =
    Typo.wordview_scenarios ~class_prefix:"wv" ~word_type:"directive-name"
      ~kinds:[ Typo.Omission ] ~file:"f" set
  in
  let direct =
    Typo.scenarios ~class_prefix:"direct" ~part:Typo.Name ~kinds:[ Typo.Omission ]
      (Errgen.Template.target ~file:"f" "//*[kind()='directive']")
      set
  in
  Alcotest.(check int) "same scenario count" (List.length direct)
    (List.length via_wordview);
  let results scenarios =
    List.map
      (fun (s : Errgen.Scenario.t) ->
        match s.apply set with
        | Ok mutated ->
          (match Conftree.Config_set.find mutated "f" with
           | Some t ->
             (match Node.get t [ 0; 0 ] with
              | Some d -> d.Node.name
              | None -> "?")
           | None -> "?")
        | Error _ -> "!")
      scenarios
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same mutations" (results direct)
    (results via_wordview)

let test_uniform_substitutions () =
  let vs = Typo.uniform_substitutions "ab" in
  Alcotest.(check bool) "larger than adjacent set" true
    (List.length vs > List.length (Typo.variants Typo.Substitution "ab"));
  List.iter
    (fun (w, _) -> Alcotest.(check int) "distance 1" 1 (Strutil.levenshtein "ab" w))
    vs

let test_dvorak_layout_changes_neighbors () =
  let qwerty_subs = Typo.variants ~layout:Keyboard.Layout.us_qwerty Typo.Substitution "port" in
  let dvorak_subs = Typo.variants ~layout:Keyboard.Layout.us_dvorak Typo.Substitution "port" in
  Alcotest.(check bool) "different slip sets" true
    (List.map fst qwerty_subs <> List.map fst dvorak_subs)

let prop_all_variants_distance_bounded =
  let kind_gen = QCheck2.Gen.oneofl Typo.all_kinds in
  QCheck2.Test.make ~name:"typo: every variant is within edit distance 2"
    QCheck2.Gen.(pair kind_gen (string_size ~gen:(char_range 'a' 'z') (int_range 1 10)))
    (fun (kind, word) ->
      List.for_all
        (fun (w, _) -> Strutil.levenshtein word w <= 2 && w <> word)
        (Typo.variants kind word))

let prop_omission_shrinks =
  QCheck2.Test.make ~name:"typo: omissions are one shorter"
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 2 12))
    (fun word ->
      List.for_all
        (fun (w, _) -> String.length w = String.length word - 1)
        (Typo.variants Typo.Omission word))

let prop_random_any_nonempty_for_letters =
  QCheck2.Test.make ~name:"typo: random_any succeeds on letter words"
    QCheck2.Gen.(pair int (string_size ~gen:(char_range 'a' 'z') (int_range 2 10)))
    (fun (seed, word) ->
      Typo.random_any (Rng.create seed) word <> None)

(* ---------------- differential oracle ---------------- *)

(* The list-based enumerator the pool replaced, kept verbatim: five
   per-kind builders, a dedup pass, and samplers that re-enumerate and
   describe every variant on each draw.  The pool must reproduce its
   words, descriptions, order and Rng draws exactly. *)
module Oracle = struct
  module Layout = Keyboard.Layout

  type kind = Typo.kind =
    | Omission
    | Insertion
    | Substitution
    | Case_alteration
    | Transposition

  let all_kinds = Typo.all_kinds
  let kind_name = Typo.kind_name

  let default_layout = Layout.us_qwerty

  let dedup_variants word variants =
    let seen = Hashtbl.create 8 in
    Hashtbl.add seen word ();
    List.filter
      (fun (w, _) ->
        if Hashtbl.mem seen w then false
        else begin
          Hashtbl.add seen w ();
          true
        end)
      variants

  let omission_variants word =
    List.init (String.length word) (fun i ->
        ( Strutil.delete_char word i,
          Printf.sprintf "omit %C at position %d" word.[i] i ))

  let insertion_variants ?(include_doubling = false) layout word =
    (* The spurious character comes from a key adjacent to the character
       being typed when the slip happens (paper §4.1).  Same-key doubling
       is a realistic extension beyond the paper's model, available
       opt-in. *)
    List.concat
      (List.init (String.length word) (fun i ->
           let doubled =
             if include_doubling then
               [
                 ( Strutil.insert_char word i word.[i],
                   Printf.sprintf "double %C at position %d" word.[i] i );
               ]
             else []
           in
           doubled
           @ (Layout.neighbors layout word.[i]
             |> List.concat_map (fun c ->
                    [
                      ( Strutil.insert_char word i c,
                        Printf.sprintf "insert %C before position %d" c i );
                      ( Strutil.insert_char word (i + 1) c,
                        Printf.sprintf "insert %C after position %d" c i );
                    ]))))

  let substitution_variants layout word =
    List.concat
      (List.init (String.length word) (fun i ->
           Layout.neighbors layout word.[i]
           |> List.map (fun c ->
                  ( Strutil.replace_char word i c,
                    Printf.sprintf "substitute %C for %C at position %d" c word.[i] i ))))

  (* Ablation variant: substitutions drawn from the whole layout instead of
     the adjacent keys — what a keyboard-oblivious fuzzer would inject. *)
  let uniform_substitution_variants layout word =
    let chars = Layout.all_chars layout in
    List.concat
      (List.init (String.length word) (fun i ->
           chars
           |> List.filter (fun c -> c <> word.[i])
           |> List.map (fun c ->
                  ( Strutil.replace_char word i c,
                    Printf.sprintf "substitute %C for %C at position %d (uniform)" c
                      word.[i] i ))))

  let case_alteration_variants layout word =
    List.concat
      (List.init (String.length word) (fun i ->
           let c = word.[i] in
           if
             (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
           then
             match Layout.shift_variant layout c with
             | Some flipped when flipped <> c ->
               [
                 ( Strutil.replace_char word i flipped,
                   Printf.sprintf "flip case of %C at position %d" c i );
               ]
             | Some _ | None -> []
           else []))

  let transposition_variants word =
    let n = String.length word in
    List.concat
      (List.init (max 0 (n - 1)) (fun i ->
           if word.[i] = word.[i + 1] then []
           else
             [
               ( Strutil.swap_chars word i,
                 Printf.sprintf "transpose positions %d and %d" i (i + 1) );
             ]))

  let uniform_substitutions ?(layout = default_layout) word =
    dedup_variants word (uniform_substitution_variants layout word)

  let variants ?(layout = default_layout) ?(include_doubling = false) kind word =
    let raw =
      match kind with
      | Omission -> if String.length word <= 1 then [] else omission_variants word
      | Insertion -> insertion_variants ~include_doubling layout word
      | Substitution -> substitution_variants layout word
      | Case_alteration -> case_alteration_variants layout word
      | Transposition -> transposition_variants word
    in
    dedup_variants word raw

  let random_variant ?(layout = default_layout) rng kind word =
    Rng.pick_opt rng (variants ~layout kind word)

  let random_any ?(layout = default_layout) rng word =
    (* Uniform over the whole one-letter typo space: kinds with more
       concrete slips (substitutions, insertions) are proportionally more
       likely, as when drawing a random subset of typos (paper §4.1). *)
    let pool =
      List.concat_map
        (fun kind ->
          List.map
            (fun (w, d) -> (w, Printf.sprintf "%s: %s" (kind_name kind) d))
            (variants ~layout kind word))
        all_kinds
    in
    Rng.pick_opt rng pool

  let random_kind_first ?(layout = default_layout) rng word =
    (* Uniform over kinds first, then over that kind's variants: each
       submodel is equally represented regardless of how many concrete
       slips it has (used by the §5.5 benchmark, which draws exactly one
       typo per experiment). *)
    let non_empty = List.filter (fun k -> variants ~layout k word <> []) all_kinds in
    match Rng.pick_opt rng non_empty with
    | None -> None
    | Some kind ->
      Option.map
        (fun (w, d) -> (w, Printf.sprintf "%s: %s" (kind_name kind) d))
        (random_variant ~layout rng kind word)

  (* Reverse mode (doc/repair.md): rank the vocabulary words a typo could
     have come from.  One-slip explanations (the forward model reproduces
     the word exactly) sort ahead of bare edit-distance neighbours. *)
  let corrections ?(layout = default_layout) ?(max_distance = 2) ~vocabulary word =
    let one_slip w =
      List.exists
        (fun kind ->
          List.exists (fun (v, _) -> v = word) (variants ~layout kind w))
        all_kinds
    in
    vocabulary
    |> List.filter_map (fun w ->
           if w = word then None
           else
             let d = Conferr_util.Strutil.damerau_levenshtein w word in
             let slip = one_slip w in
             if slip || d <= max_distance then Some (w, d, slip) else None)
    |> List.sort (fun (a, da, sa) (b, db, sb) ->
           match (sa, sb) with
           | true, false -> -1
           | false, true -> 1
           | _ ->
             let c = compare da db in
             if c <> 0 then c else compare a b)
    |> List.map (fun (w, d, _) -> (w, d))
end

let layouts =
  Keyboard.Layout.[ ("us-qwerty", us_qwerty); ("us-dvorak", us_dvorak); ("ch-qwertz", ch_qwertz) ]

(* Words that exercise every edge of the model: empty and one-character
   words, runs of a repeated letter, digits, punctuation, upper case,
   and bytes outside ASCII (some typeable on ch-qwertz, some on no
   layout).  The last branch draws config values at the lengths
   campaigns mutate (paths, log prefixes, up to about 40 characters):
   runs of one to three of a character over an alphabet of letters
   next to each other on the keyboard, '/', '_', '.' and '%', so that
   slips land inside and beside runs of their own character. *)
let word_gen =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [ ""; "a"; "A"; "7"; "_"; "aab"; "abba"; "aaa"; "Port"; "8080";
            "max_connections"; "/var/log"; "caf\xc3\xa9"; "\xa7\xe8"; "zz--yy" ];
        string_size
          ~gen:(oneofl [ 'a'; 'b'; 'A'; 'B'; '1'; '2'; '_'; '-'; '.'; ' '; '/';
                         'z'; 'y'; '\xa7'; '\xe8'; '\xc3'; '\xa9' ])
          (int_range 0 8);
        string_size ~gen:char (int_range 0 6);
        (let run =
           map2 String.make (oneofl [ 1; 1; 1; 2; 3 ])
             (oneofl [ 'a'; 's'; 'd'; 'l'; 'o'; 'p'; 'g'; 'S'; '/'; '_'; '.'; '-'; '0'; '%' ])
         in
         map2
           (fun len runs -> String.sub (String.concat "" runs) 0 len)
           (int_range 9 40) (list_repeat 40 run));
      ])

let layout_gen = QCheck2.Gen.oneofl layouts

let print_case (name, _) word = Printf.sprintf "%s %S" name word

let prop_variants_match_oracle =
  QCheck2.Test.make ~count:300 ~name:"typo: variants equal the list-based oracle"
    ~print:(fun ((layout, doubling), word) ->
      Printf.sprintf "%s doubling=%b" (print_case layout word) doubling)
    QCheck2.Gen.(pair (pair layout_gen bool) word_gen)
    (fun (((_, layout), include_doubling), word) ->
      List.for_all
        (fun kind ->
          Typo.variants ~layout ~include_doubling kind word
          = Oracle.variants ~layout ~include_doubling kind word)
        Typo.all_kinds
      && Typo.uniform_substitutions ~layout word
         = Oracle.uniform_substitutions ~layout word)

(* Same result and same generator state afterwards: a caller that keeps
   drawing from the stream sees the same faultload. *)
let same_draw draw oracle seed =
  let r = Rng.create seed and r' = Rng.create seed in
  let a = draw r and b = oracle r' in
  a = b && Rng.next_int64 r = Rng.next_int64 r'

let prop_samplers_match_oracle =
  QCheck2.Test.make ~count:300 ~name:"typo: samplers draw as the oracle does"
    ~print:(fun (layout, seed, word) ->
      Printf.sprintf "%s seed=%d" (print_case layout word) seed)
    QCheck2.Gen.(triple layout_gen int word_gen)
    (fun ((_, layout), seed, word) ->
      same_draw (fun r -> Typo.random_any ~layout r word)
        (fun r -> Oracle.random_any ~layout r word) seed
      && same_draw (fun r -> Typo.random_kind_first ~layout r word)
           (fun r -> Oracle.random_kind_first ~layout r word) seed
      && List.for_all
           (fun kind ->
             same_draw (fun r -> Typo.random_variant ~layout r kind word)
               (fun r -> Oracle.random_variant ~layout r kind word) seed)
           Typo.all_kinds
      (* ten draws from one pool, as the §5.2 faultload and the
         suggester make them, against ten re-enumerations *)
      && same_draw
           (fun r ->
             let pool = Typo.pool ~layout word in
             List.init 10 (fun _ -> Typo.draw_any r pool))
           (fun r -> List.init 10 (fun _ -> Oracle.random_any ~layout r word))
           seed)

let prop_doubling_pool_matches_oracle =
  QCheck2.Test.make ~name:"typo: a doubling pool draws from the oracle's union"
    ~print:(fun (layout, seed, word) ->
      Printf.sprintf "%s seed=%d" (print_case layout word) seed)
    QCheck2.Gen.(triple layout_gen int word_gen)
    (fun ((_, layout), seed, word) ->
      let union =
        List.concat_map
          (fun kind ->
            List.map
              (fun (w, d) -> (w, Printf.sprintf "%s: %s" (Typo.kind_name kind) d))
              (Oracle.variants ~layout ~include_doubling:true kind word))
          Typo.all_kinds
      in
      same_draw
        (fun r -> Typo.draw_any r (Typo.pool ~layout ~include_doubling:true word))
        (fun r -> Rng.pick_opt r union) seed)

(* Queries for the reverse model: the generated word, and a seeded typo
   of one vocabulary word, so one-slip explanations occur.  Besides the
   pg and mysql vocabularies, a dense one over a few letters, some of
   them adjacent keys, so that slips and unmodelled one-edit neighbours
   compete in the ranking. *)
let prop_corrections_match_oracle =
  let letters = QCheck2.Gen.oneofl [ 'a'; 's'; 'q'; 'b'; 'A'; '1' ] in
  let dense = QCheck2.Gen.(string_size ~gen:letters (int_range 0 4)) in
  QCheck2.Test.make ~count:50 ~name:"typo: corrections rank as the oracle does"
    ~print:(fun ((layout, max_distance), seed, (word, (small, vocabulary))) ->
      Printf.sprintf "%s max_distance=%d seed=%d %S in [%s]" (print_case layout word)
        max_distance seed small
        (String.concat "; " vocabulary))
    QCheck2.Gen.(
      triple (pair layout_gen (int_range 0 3)) int
        (pair word_gen (pair dense (list_size (int_range 1 12) dense))))
    (fun (((_, layout), max_distance), seed, (word, (small, dense_vocabulary))) ->
      List.for_all
        (fun vocabulary ->
          let rng = Rng.create seed in
          let typo =
            match Oracle.random_any ~layout rng (Rng.pick rng vocabulary) with
            | Some (w, _) -> w
            | None -> word
          in
          List.for_all
            (fun q ->
              Typo.corrections ~layout ~max_distance ~vocabulary q
              = Oracle.corrections ~layout ~max_distance ~vocabulary q)
            [ word; typo; small ])
        [ Suts.Vocabulary.postgres; Suts.Vocabulary.mysql; dense_vocabulary ])

let test_corrections_match_oracle_on_vocabulary () =
  (* every vocabulary word, and one typo of each, on the default layout *)
  List.iter
    (fun vocabulary ->
      let rng = Rng.create 42 in
      List.iter
        (fun w ->
          let queries =
            w :: (match Oracle.random_any rng w with Some (t, _) -> [ t ] | None -> [])
          in
          List.iter
            (fun q ->
              Alcotest.(check (list (pair string int)))
                q
                (Oracle.corrections ~vocabulary q)
                (Typo.corrections ~vocabulary q))
            queries)
        vocabulary)
    [ Suts.Vocabulary.postgres; Suts.Vocabulary.mysql ]

(* The reverse mode's slip check against the pool it replaces: for a
   word, every typed string one character edit away (an omission, an
   insertion or a substitution of a character of the word, of one of
   its layout neighbours or of a byte no layout has; a swap of two
   adjacent characters) and every pool member is a slip exactly when
   the word's pool without doubling holds it. *)
let prop_is_slip_matches_pool =
  QCheck2.Test.make ~count:300 ~name:"typo: is_slip agrees with pool membership"
    ~print:(fun (layout, word) -> print_case layout word)
    QCheck2.Gen.(pair layout_gen word_gen)
    (fun ((_, layout), intended) ->
      let pool = Hashtbl.create 64 in
      List.iter
        (fun kind ->
          List.iter
            (fun (w, _) -> Hashtbl.replace pool w ())
            (Typo.variants ~layout kind intended))
        Typo.all_kinds;
      let n = String.length intended in
      let own = List.init n (String.get intended) in
      let chars =
        List.sort_uniq Char.compare
          (own
          @ List.concat_map (Keyboard.Layout.neighbors layout) own
          @ [ 'a'; 'Q'; '1'; '_'; ' '; '\x00'; '\x7f'; '\xa7'; '\xe8'; '\xff' ])
      in
      let sub i j = String.sub intended i (j - i) in
      let edits =
        List.concat
          [
            List.init n (fun i -> sub 0 i ^ sub (i + 1) n);
            List.concat_map
              (fun c ->
                List.init (n + 1) (fun i -> sub 0 i ^ String.make 1 c ^ sub i n)
                @ List.init n (fun i -> sub 0 i ^ String.make 1 c ^ sub (i + 1) n))
              chars;
            List.init (max 0 (n - 1)) (fun i ->
                sub 0 i ^ String.make 1 intended.[i + 1] ^ String.make 1 intended.[i]
                ^ sub (i + 2) n);
            intended :: List.of_seq (Hashtbl.to_seq_keys pool);
          ]
      in
      List.for_all
        (fun typed ->
          Typo.is_slip ~layout ~intended typed = Hashtbl.mem pool typed
          || QCheck2.Test.fail_reportf "%S -> %S: is_slip %b" intended typed
               (Typo.is_slip ~layout ~intended typed))
        edits)

let suite =
  [
    Alcotest.test_case "omission" `Quick test_omission;
    Alcotest.test_case "omission short word" `Quick test_omission_short_word;
    Alcotest.test_case "insertion neighbours" `Quick test_insertion_uses_neighbors;
    Alcotest.test_case "substitution neighbours" `Quick test_substitution_uses_neighbors;
    Alcotest.test_case "case alteration" `Quick test_case_alteration;
    Alcotest.test_case "transposition" `Quick test_transposition;
    Alcotest.test_case "transposition equal pair" `Quick
      test_transposition_skips_equal_pair;
    Alcotest.test_case "never original" `Quick test_variants_never_include_original;
    Alcotest.test_case "deduplicated" `Quick test_variants_deduplicated;
    Alcotest.test_case "random variant member" `Quick test_random_variant_member;
    Alcotest.test_case "random any empty" `Quick test_random_any_exhausts_empty;
    Alcotest.test_case "random kind first" `Quick test_random_kind_first;
    Alcotest.test_case "wordview equivalence" `Quick
      test_wordview_scenarios_equivalent_to_direct;
    Alcotest.test_case "uniform substitutions" `Quick test_uniform_substitutions;
    Alcotest.test_case "dvorak layout" `Quick test_dvorak_layout_changes_neighbors;
    QCheck_alcotest.to_alcotest prop_all_variants_distance_bounded;
    QCheck_alcotest.to_alcotest prop_omission_shrinks;
    QCheck_alcotest.to_alcotest prop_random_any_nonempty_for_letters;
    QCheck_alcotest.to_alcotest prop_variants_match_oracle;
    QCheck_alcotest.to_alcotest prop_samplers_match_oracle;
    QCheck_alcotest.to_alcotest prop_doubling_pool_matches_oracle;
    QCheck_alcotest.to_alcotest prop_corrections_match_oracle;
    Alcotest.test_case "corrections oracle on vocabularies" `Quick
      test_corrections_match_oracle_on_vocabulary;
    QCheck_alcotest.to_alcotest prop_is_slip_matches_pool;
  ]
