module Node = Conftree.Node
module Path = Conftree.Path
module Config_set = Conftree.Config_set
module Rule = Conferr_lint.Rule
module Finding = Conferr_lint.Finding
module Checker = Conferr_lint.Checker

type candidate = {
  origin : string;
  description : string;
  edits : Redit.t list;
  cluster : string list;
}

let default_nearest ~vocabulary word = Conferr.Suggest.nearest ~vocabulary word

let typed_findings ?(nearest = default_nearest) ~rules set =
  List.concat_map
    (fun (rule, findings) -> List.map (fun finding -> (rule, finding)) findings)
    (Checker.run_by_rule ~nearest ~rules set)

(* ------------------------------------------------------------------ *)
(* Tree lookups shared by the generators. *)

let directives root =
  Node.find_all (fun n -> n.Node.kind = Node.kind_directive) root

let find_directive set file ~canon name =
  match Config_set.find set file with
  | None -> None
  | Some root ->
    let want = canon name in
    List.find_opt
      (fun (_, (n : Node.t)) -> canon n.name = want)
      (directives root)

let stock_names stock file =
  match Config_set.find stock file with
  | None -> []
  | Some root ->
    directives root
    |> List.fold_left
         (fun acc (_, (n : Node.t)) ->
           if n.name = "" || List.mem n.name acc then acc else n.name :: acc)
         []
    |> List.rev

(* Invert the deletion of [name]: re-insert the stock node at its stock
   position, provided the enclosing parent still exists in [broken]. *)
let reinsert ~stock ~broken ~file ~canon name =
  match find_directive stock file ~canon name with
  | None -> None
  | Some (spath, snode) -> (
    match Path.parent spath with
    | None -> None
    | Some (parent, index) -> (
      let parent_ok =
        match Config_set.find broken file with
        | None -> false
        | Some root -> Node.get root parent <> None
      in
      match parent_ok with
      | false -> None
      | true -> Some { Redit.file; path = parent; op = Insert { index; node = snode } }))

(* One edit moving directive [name] of [file] back to its stock state:
   value restored, deleted directive re-inserted, spurious directive
   dropped; [None] when broken and stock already agree on it. *)
let restore_name ?(canon = Rule.lower) ~stock ~broken ~file name =
  match
    (find_directive stock file ~canon name, find_directive broken file ~canon name)
  with
  | Some (_, snode), Some (bpath, bnode) ->
    if bnode.Node.value = snode.Node.value then None
    else Some { Redit.file; path = bpath; op = Set_value snode.Node.value }
  | Some _, None -> reinsert ~stock ~broken ~file ~canon name
  | None, Some (bpath, _) -> Some { Redit.file; path = bpath; op = Delete }
  | None, None -> None

(* ------------------------------------------------------------------ *)
(* Structural diff against stock: the universal inverter.  A parallel
   walk aligning children structurally (one-node lookahead, enough for
   single-fault mutants), each divergence inverted into a Redit. *)

let stock_diff ~stock ~broken =
  let edits = ref [] in
  let emit e = edits := e :: !edits in
  let rec walk file path i (ss : Node.t list) (bs : Node.t list) =
    match (ss, bs) with
    | [], [] -> ()
    | s :: srest, [] ->
      emit { Redit.file; path; op = Insert { index = i; node = s } };
      walk file path (i + 1) srest []
    | [], _ :: brest ->
      emit { Redit.file; path = path @ [ i ]; op = Delete };
      walk file path (i + 1) [] brest
    | s :: srest, b :: brest ->
      if Node.equal_modulo_attrs s b then walk file path (i + 1) srest brest
      else if
        List.length ss > List.length bs
        && (match srest with x :: _ -> Node.equal_modulo_attrs x b | [] -> false)
      then begin
        (* s was deleted from broken: b aligns with the next stock node *)
        emit { Redit.file; path; op = Insert { index = i; node = s } };
        walk file path (i + 1) srest (b :: brest)
      end
      else if
        List.length bs > List.length ss
        && (match brest with x :: _ -> Node.equal_modulo_attrs s x | [] -> false)
      then begin
        (* b was inserted into broken: s aligns with the next broken node *)
        emit { Redit.file; path = path @ [ i ]; op = Delete };
        walk file path (i + 1) (s :: srest) brest
      end
      else if s.Node.kind = b.Node.kind then begin
        let here = path @ [ i ] in
        if s.Node.name <> b.Node.name then
          emit { Redit.file; path = here; op = Rename s.Node.name };
        if s.Node.value <> b.Node.value then
          emit { Redit.file; path = here; op = Set_value s.Node.value };
        (let seq = List.equal Node.equal_modulo_attrs in
         if not (seq s.Node.children b.Node.children) then
           walk file here 0 s.Node.children b.Node.children);
        walk file path (i + 1) srest brest
      end
      else begin
        emit { Redit.file; path = path @ [ i ]; op = Delete };
        emit { Redit.file; path; op = Insert { index = i; node = s } };
        walk file path (i + 1) srest brest
      end
  in
  List.iter
    (fun (file, sroot) ->
      match Config_set.find broken file with
      | None -> emit { Redit.file; path = []; op = Restore_file sroot }
      | Some broot ->
        if not (Node.equal_modulo_attrs sroot broot) then
          walk file [] 0 sroot.Node.children broot.Node.children)
    (Config_set.to_list stock);
  List.rev !edits

(* ------------------------------------------------------------------ *)
(* Finding-driven generators: the plugins in reverse. *)

let node_at broken file path =
  Option.bind (Config_set.find broken file) (fun root -> Node.get root path)

let int_of_value v = int_of_string_opt (String.trim v)

let per_finding ~nearest ~stock ~broken (rule : Rule.t) (f : Finding.t) =
  let file = f.Finding.file in
  let mk origin edits =
    { origin; description = f.Finding.message; edits; cluster = [] }
  in
  match rule.Rule.body with
  | Rule.Unknown { vocabulary; _ } -> (
    match node_at broken file f.Finding.path with
    | None -> []
    | Some n ->
      let word = n.Node.name in
      let suggestion =
        match f.Finding.suggestion with
        | Some s -> [ mk "suggestion" [ { Redit.file; path = f.Finding.path; op = Rename s } ] ]
        | None -> []
      in
      let vocab =
        List.sort_uniq compare (vocabulary @ stock_names stock file)
      in
      let corrections =
        Errgen.Typo.corrections ~vocabulary:vocab word
        |> List.filteri (fun i _ -> i < 3)
        |> List.map (fun (w, _) ->
               mk "correction" [ { Redit.file; path = f.Finding.path; op = Rename w } ])
      in
      suggestion @ corrections)
  | Rule.Value { name; canon; vtype; _ } -> (
    match node_at broken file f.Finding.path with
    | None -> []
    | Some n ->
      let value = Option.value ~default:"" n.Node.value in
      let stock_value =
        match find_directive stock file ~canon name with
        | Some (_, sn) ->
          [ mk "stock-value"
              [ { Redit.file; path = f.Finding.path; op = Set_value sn.Node.value } ] ]
        | None -> []
      in
      let typed =
        match vtype with
        | Rule.Int_range (lo, hi) -> (
          match int_of_value value with
          | Some i when i < lo || i > hi ->
            let clamped = if i < lo then lo else hi in
            [ mk "clamp"
                [ { Redit.file;
                    path = f.Finding.path;
                    op = Set_value (Some (string_of_int clamped));
                  } ] ]
          | _ -> [])
        | Rule.Enum { allowed; _ } -> (
          match nearest ~vocabulary:allowed value with
          | Some (w, _) when w <> value ->
            [ mk "enum-nearest"
                [ { Redit.file; path = f.Finding.path; op = Set_value (Some w) } ] ]
          | _ -> [])
        | Rule.Bool_word | Rule.Custom _ -> []
      in
      stock_value @ typed)
  | Rule.Required { name; canon; file = rfile; _ } -> (
    match reinsert ~stock ~broken ~file:rfile ~canon name with
    | Some e -> [ mk "restore-required" [ e ] ]
    | None -> [])
  | Rule.No_duplicates _ ->
    [ mk "drop-duplicate" [ { Redit.file; path = f.Finding.path; op = Delete } ] ]
  | Rule.Implies { canon; _ } ->
    (* restore each stock directive the failure message implicates; the
       joint (multi-edit) variant comes from the Cooccur clusters *)
    stock_names stock file
    |> List.filter (fun name ->
           Conferr_infer.Template.mentions ~name f.Finding.message)
    |> List.filter_map (fun name ->
           restore_name ~canon ~stock ~broken ~file name)
    |> List.map (fun e -> mk "stock-value" [ e ])
  | Rule.Reference { name; canon; _ } -> (
    match find_directive stock file ~canon name with
    | Some (_, sn) ->
      [ mk "stock-value"
          [ { Redit.file; path = f.Finding.path; op = Set_value sn.Node.value } ] ]
    | None -> [])
  | Rule.Relation { canon; lhs; rhs; _ } ->
    (* a violated relation implicates every term: one joint candidate
       restoring all divergent participants at once (the multi-edit fix
       Cluster mines dynamically, derived here statically), plus the
       single-directive restores as cheaper alternatives *)
    let names =
      List.map
        (fun (t : Rule.term) -> t.Rule.t_name)
        (lhs.Rule.l_terms @ rhs.Rule.l_terms)
    in
    let restores =
      List.filter_map
        (fun name ->
          Option.map
            (fun e -> (name, e))
            (restore_name ~canon ~stock ~broken ~file name))
        names
    in
    let joint =
      match restores with
      | [] | [ _ ] -> []
      | _ ->
        [
          {
            origin = "relation";
            description = f.Finding.message;
            edits = List.map snd restores;
            cluster = List.map fst restores;
          };
        ]
    in
    joint @ List.map (fun (_, e) -> mk "stock-value" [ e ]) restores
  | Rule.Check_set _ -> (
    let suggestion =
      match f.Finding.suggestion with
      | Some s ->
        [ mk "suggestion" [ { Redit.file; path = f.Finding.path; op = Rename s } ] ]
      | None -> []
    in
    let restore =
      match (node_at broken file f.Finding.path, node_at stock file f.Finding.path) with
      | Some bn, Some sn when bn.Node.kind = sn.Node.kind ->
        let here = f.Finding.path in
        let renames =
          if bn.Node.name <> sn.Node.name then
            [ mk "restore-node" [ { Redit.file; path = here; op = Rename sn.Node.name } ] ]
          else []
        in
        let values =
          if bn.Node.value <> sn.Node.value then
            [ mk "restore-node"
                [ { Redit.file; path = here; op = Set_value sn.Node.value } ] ]
          else []
        in
        (* children deleted from the broken node: re-insert each stock
           child whose (kind, name) has fewer occurrences in broken *)
        let key (n : Node.t) = (n.Node.kind, String.lowercase_ascii n.Node.name) in
        let count k l = List.length (List.filter (fun c -> key c = k) l) in
        let inserts =
          List.mapi (fun idx c -> (idx, c)) sn.Node.children
          |> List.filter (fun (_, c) ->
                 count (key c) bn.Node.children < count (key c) sn.Node.children)
          |> List.map (fun (idx, c) ->
                 mk "restore-node"
                   [ { Redit.file; path = here; op = Insert { index = idx; node = c } } ])
        in
        renames @ values @ inserts
      | Some _, None ->
        [ mk "restore-node" [ { Redit.file; path = f.Finding.path; op = Delete } ] ]
      | _ -> []
    in
    suggestion @ restore)

(* ------------------------------------------------------------------ *)

let dedup cands =
  List.fold_left
    (fun acc c ->
      if List.exists (fun c' -> c'.edits = c.edits) acc then acc else c :: acc)
    [] cands
  |> List.rev

let candidates ?(nearest = default_nearest) ~findings ~stock ~broken () =
  let from_findings =
    List.concat_map
      (fun (rule, f) -> per_finding ~nearest ~stock ~broken rule f)
      findings
  in
  let diff_edits = stock_diff ~stock ~broken in
  let from_diff =
    match diff_edits with
    | [] -> []
    | _ :: _ when List.length diff_edits <= 8 ->
      (* the full inversion, plus each single divergence on its own *)
      let singles =
        if List.length diff_edits > 1 then
          List.map
            (fun e ->
              { origin = "stock-diff";
                description = Redit.describe ~broken e;
                edits = [ e ];
                cluster = [];
              })
            diff_edits
        else []
      in
      { origin = "stock-diff";
        description = "restore every divergence from the stock configuration";
        edits = diff_edits;
        cluster = [];
      }
      :: singles
    | _ -> []
  in
  let from_files =
    Config_set.to_list stock
    |> List.filter_map (fun (file, sroot) ->
           let differs =
             match Config_set.find broken file with
             | None -> true
             | Some broot -> not (Node.equal_modulo_attrs sroot broot)
           in
           if differs then
             Some
               { origin = "stock-file";
                 description = Printf.sprintf "replace '%s' with the stock file" file;
                 edits = [ { Redit.file; path = []; op = Restore_file sroot } ];
                 cluster = [];
               }
           else None)
  in
  dedup (from_findings @ from_diff @ from_files)
  |> List.stable_sort
       (fun a b ->
         compare (Redit.total_cost ~broken a.edits) (Redit.total_cost ~broken b.edits))
