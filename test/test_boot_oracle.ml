(* The simulated Apache looks its directive names up in maps built once
   and splits a value only where a validator reads it; the httpd.conf
   parser and the BIND zone parser scan their text by index and in one
   pass.  The oracles are the implementations they replace
   (Boot_reference).  Every apache and bind mutant of the typo faultload
   at seeds 1 and 42, built by apply and serialize, must boot to the
   same verdict and message; apache's startup walk must report the same
   problems and end in the same state; and random texts must parse to
   equal trees or fail alike. *)

module Ref = Boot_reference
module Sut = Suts.Sut
module A = Suts.Mini_apache
module Node = Conftree.Node
module Config_set = Conftree.Config_set
module Parse_error = Formats.Parse_error

let mutants (sut : Sut.t) seed =
  match Conferr.Engine.parse_default_config sut with
  | Error msg -> Alcotest.failf "%s: %s" sut.sut_name msg
  | Ok base ->
    Conferr.Campaign.typo_scenarios ~rng:(Conferr_util.Rng.create seed)
      ~faultload:Conferr.Campaign.paper_faultload sut base
    |> List.filter_map (fun (sc : Errgen.Scenario.t) ->
           match sc.apply base with
           | Error _ -> None
           | Ok mutated -> Result.to_option (Conferr.Engine.serialize_config sut mutated))

(* what a boot shows: the refusal, or what the functional tests report *)
let verdict = function
  | Ok (instance : Sut.instance) -> Ok (instance.run_tests ())
  | Error msg -> Error msg

let show_verdict = function
  | Ok results ->
    String.concat "; "
      (List.map (fun (r : Sut.test_result) -> r.test_name ^ ": " ^ r.detail) results)
  | Error msg -> "refused: " ^ msg

let check_verdict where ~want got =
  if got <> want then
    Alcotest.failf "%s: boot gives %s, the reference %s" where (show_verdict got)
      (show_verdict want)

let show_parse = function
  | Ok tree -> Node.to_string tree
  | Error (e : Parse_error.t) -> Printf.sprintf "error at line %d: %s" e.line e.message

(* equal trees, or the same error at the same line *)
let same_parse want got =
  match (want, got) with
  | Ok t, Ok t' -> Node.equal t t'
  | Error (e : Parse_error.t), Error (e' : Parse_error.t) ->
    e.line = e'.line && e.message = e'.message
  | Ok _, Error _ | Error _, Ok _ -> false

let check_parse where ~want got =
  if not (same_parse want got) then
    Alcotest.failf "%s: parse gives\n%s\nthe reference\n%s" where (show_parse got)
      (show_parse want)

(* ------------------------------------------------------------------ *)
(* Apache                                                               *)
(* ------------------------------------------------------------------ *)

let reference_apache_boot configs =
  match List.assoc_opt "httpd.conf" configs with
  | None -> Error "httpd.conf not found"
  | Some main_text ->
    let text =
      match List.assoc_opt "ssl.conf" configs with
      | Some ssl -> main_text ^ "\n" ^ ssl
      | None -> main_text
    in
    (match Ref.Apacheconf.parse text with
     | Error e -> Error (Printf.sprintf "Syntax error: %s" (Parse_error.to_string e))
     | Ok tree ->
       let ( let* ) = Result.bind in
       let* state =
         Sut.first_problem (fun report -> Ref.Apache.check report [ ("httpd.conf", tree) ])
       in
       let* () = Ref.Apache.listening state in
       Ok (Ref.Apache.functional_tests state ()))

let reference_state (s : Ref.Apache.state) =
  ( s.loaded,
    s.listeners,
    s.first_listen,
    s.document_root,
    s.document_root_at,
    s.vhost_roots,
    s.directory_index,
    s.directory_index_at,
    s.unknown_ifmodules )

let state (s : A.state) =
  ( s.loaded,
    s.listeners,
    s.first_listen,
    s.document_root,
    s.document_root_at,
    s.vhost_roots,
    s.directory_index,
    s.directory_index_at,
    s.unknown_ifmodules )

(* [Sut.all_problems] over both walks of the same parsed files *)
let check_walk where files =
  let ref_problems, ref_state =
    Sut.all_problems (fun report -> Ref.Apache.check report files)
  in
  let problems, st = Sut.all_problems (fun report -> A.check report files) in
  if problems <> ref_problems then
    Alcotest.failf "%s: the walk reports %d problems, the reference %d (first: %s)" where
      (List.length problems) (List.length ref_problems)
      (match problems with p :: _ -> p.Sut.message | [] -> "none");
  if state st <> reference_state ref_state then
    Alcotest.failf "%s: the walk's state differs from the reference's" where

let check_apache_mutant where configs =
  check_verdict where ~want:(reference_apache_boot configs)
    (verdict (A.sut.Sut.boot configs));
  (* each file on its own, and the two as one walk: lint's view *)
  let parsed =
    List.map
      (fun (file, text) ->
        let want = Ref.Apacheconf.parse text in
        check_parse (where ^ " " ^ file) ~want (Formats.Apacheconf.parse text);
        (file, want))
      configs
  in
  if List.for_all (fun (_, p) -> Result.is_ok p) parsed then
    check_walk where (List.map (fun (file, p) -> (file, Result.get_ok p)) parsed);
  (* boot's view: the concatenation as one file *)
  let text = String.concat "\n" (List.map snd configs) in
  match Ref.Apacheconf.parse text with
  | Ok tree -> check_walk (where ^ " as one file") [ ("httpd.conf", tree) ]
  | Error _ -> ()

let test_apache_mutants () =
  List.iter
    (fun seed ->
      List.iteri
        (fun i configs ->
          check_apache_mutant (Printf.sprintf "apache seed %d mutant %d" seed i) configs)
        (mutants A.sut seed))
    [ 1; 42 ]

(* ------------------------------------------------------------------ *)
(* BIND                                                                 *)
(* ------------------------------------------------------------------ *)

let is_zone_file file = List.mem_assoc file Suts.Mini_bind.zones

(* Each record without a TTL of its own carries the zone's default: the
   value of the first $TTL in document order, the head of what
   [Node.find_all] finds, else 86400. *)
let check_default_ttl where trees =
  let expected_ttl tree =
    let default =
      (match
         Node.find_all
           (fun n ->
             n.Node.kind = Node.kind_directive && String.uppercase_ascii n.name = "$TTL")
           tree
       with
       | [] -> None
       | (_, n) :: _ -> Some n)
      |> Option.map (Node.value_or ~default:"86400")
      |> Option.map int_of_string_opt
      |> Option.join
      |> Option.value ~default:86400
    in
    List.filter_map
      (fun (n : Node.t) ->
        if n.kind = Node.kind_record then
          Some
            (Option.value ~default
               (Option.join (Option.map int_of_string_opt (Node.attr n "ttl"))))
        else None)
      tree.Node.children
  in
  let set = Config_set.of_list trees in
  match (Dnsmodel.Codec.bind ~zones:Suts.Mini_bind.zones).decode set with
  | Error _ -> ()
  | Ok records ->
    let want =
      List.concat_map
        (fun (file, _) -> expected_ttl (Option.get (Config_set.find set file)))
        Suts.Mini_bind.zones
    in
    Alcotest.(check (list int)) (where ^ ": TTLs") want
      (List.map (fun (r : Dnsmodel.Record.t) -> r.ttl) records)

let check_bind_mutant where configs =
  check_verdict where ~want:(verdict (Ref.Bind.boot configs))
    (verdict (Suts.Mini_bind.sut.Sut.boot configs));
  let trees =
    List.filter_map
      (fun (file, text) ->
        if is_zone_file file then begin
          let want = Ref.Bindzone.parse text in
          check_parse (where ^ " " ^ file) ~want (Formats.Bindzone.parse text);
          Option.map (fun tree -> (file, tree)) (Result.to_option want)
        end
        else None)
      configs
  in
  if List.length trees = List.length Suts.Mini_bind.zones then check_default_ttl where trees

let test_bind_mutants () =
  List.iter
    (fun seed ->
      List.iteri
        (fun i configs ->
          check_bind_mutant (Printf.sprintf "bind seed %d mutant %d" seed i) configs)
        (mutants Suts.Mini_bind.sut seed))
    [ 1; 42 ]

(* ------------------------------------------------------------------ *)
(* Random texts                                                         *)
(* ------------------------------------------------------------------ *)

let line_of pieces = QCheck2.Gen.(map (String.concat "") (list_size (int_range 0 6) pieces))

(* lines that mix the shapes the parser tells apart with the blanks it
   trims: tabs, carriage returns, form feeds *)
let apache_line =
  QCheck2.Gen.(
    let pieces =
      oneofl
        [ " "; "\t"; "\r"; "\012"; "#"; "<"; ">"; "</"; "/"; "Listen"; "80"; "*:80";
          "VirtualHost"; "IfModule"; "Directory"; "mod_userdir.c"; "\"/var/www\"" ]
    in
    frequency
      [
        (4, line_of pieces);
        (1, oneofl [ ""; "  "; "# a comment"; "\t# tabbed comment\r" ]);
        ( 2,
          oneofl
            [ "<VirtualHost *:80>"; "<VirtualHost\t*:80>"; "</VirtualHost>";
              "<IfModule\tmod_userdir.c>"; "  </IfModule>\r"; "<Directory>"; "</directory >";
              "<Directory \"/var/www\"\t>"; "<Location"; "</>"; "< Files x>" ] );
      ])

let text_of lines =
  QCheck2.Gen.(
    map2
      (fun lines newline -> String.concat "\n" lines ^ if newline then "\n" else "")
      (list_size (int_range 0 12) lines) bool)

let prop_apacheconf_parse =
  QCheck2.Test.make ~count:1000 ~name:"apacheconf: parse agrees with the reference"
    ~print:String.escaped (text_of apache_line) (fun text ->
      same_parse (Ref.Apacheconf.parse text) (Formats.Apacheconf.parse text))

(* records and directives of random fields, with random blanks before
   and between them *)
let zone_line =
  QCheck2.Gen.(
    let field =
      oneofl
        [ "@"; "www"; "x."; "3600"; "IN"; "in"; "Ch"; "A"; "a"; "mx"; "Txt"; "SOA"; "10";
          "10.0.0.1"; "\"a b\""; "("; ")"; "; note"; "$TTL"; "$ORIGIN"; "\r"; "\012" ]
    in
    map3
      (fun lead fields sep -> lead ^ String.concat sep fields)
      (oneofl [ ""; " "; "\t" ])
      (list_size (int_range 0 6) field)
      (oneofl [ " "; "\t"; " \t " ]))

let prop_bindzone_parse =
  QCheck2.Test.make ~count:1000 ~name:"bindzone: parse agrees with the reference"
    ~print:String.escaped (text_of zone_line) (fun text ->
      same_parse (Ref.Bindzone.parse text) (Formats.Bindzone.parse text))

let prop_fields =
  QCheck2.Test.make ~count:1000 ~name:"apache fields: split on runs of spaces and tabs"
    ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:(oneofl [ ' '; '\t'; 'a'; 'b'; '"'; '\r' ]) (int_range 0 12))
    (fun s -> A.fields s = Ref.Apache.fields s)

let test_fields_cases () =
  List.iter
    (fun s ->
      Alcotest.(check (list string)) (String.escaped s) (Ref.Apache.fields s) (A.fields s))
    [ ""; " "; "\t \t"; "a"; "  a\tb  "; "\tAllow from\t all "; "a  b\t\tc"; "x\r y" ]

(* the module map boot reads, against the reference's list lookup, for
   every listed name in two spellings and for names in neither list *)
let test_directive_module () =
  let listed = List.map fst Ref.Apache.directive_modules @ List.map fst Ref.Apache.core_directives in
  List.iter
    (fun name ->
      Alcotest.(check (option string)) name (Ref.Apache.directive_module name)
        (A.directive_module name))
    (listed @ List.map String.uppercase_ascii listed
    @ [ ""; "Listenn"; "LoadModule"; "VirtualHost"; "ssl_module" ])

let suite =
  [
    Alcotest.test_case "apache mutants boot and walk as the reference" `Quick
      test_apache_mutants;
    Alcotest.test_case "bind mutants boot and load as the reference" `Quick
      test_bind_mutants;
    Alcotest.test_case "apache fields: edge cases" `Quick test_fields_cases;
    QCheck_alcotest.to_alcotest prop_apacheconf_parse;
    QCheck_alcotest.to_alcotest prop_bindzone_parse;
    QCheck_alcotest.to_alcotest prop_fields;
    Alcotest.test_case "apache directive_module as the reference" `Quick
      test_directive_module;
  ]
