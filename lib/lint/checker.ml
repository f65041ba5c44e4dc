module Node = Conftree.Node
module Config_set = Conftree.Config_set

type nearest = vocabulary:string list -> string -> (string * int) option

(* One traversal per file: every node with its path, its name
   lowercased (the canonical name under [Rule.lower], which most rules
   use, made once per walk rather than once per rule), the name of its
   innermost enclosing section (lowercased, "" at top level) and the
   path of that section (scope key for duplicate detection). *)
type site = {
  s_path : Conftree.Path.t;
  s_node : Node.t;
  s_lower : string;
  s_section : string;
  s_scope : Conftree.Path.t;
}

let collect root =
  let acc = ref [] in
  let rec go path section scope (node : Node.t) =
    let lower = String.lowercase_ascii node.name in
    acc :=
      { s_path = path; s_node = node; s_lower = lower; s_section = section; s_scope = scope }
      :: !acc;
    let section, scope =
      if node.kind = Node.kind_section then (lower, path) else (section, scope)
    in
    List.iteri (fun i c -> go (path @ [ i ]) section scope c) node.children
  in
  go [] "" [] root;
  List.rev !acc

let target_ok (t : Rule.target) ~file ~section =
  (match t.in_file with None -> true | Some f -> f = file)
  && match t.in_section with None -> true | Some s -> s = section

let check_vtype ~name value = function
  | Rule.Int_range (lo, hi) -> (
    match int_of_string_opt (String.trim value) with
    | Some n when n >= lo && n <= hi -> None
    | Some n ->
      Some
        (Printf.sprintf "value %d of '%s' is outside the valid range [%d, %d]"
           n name lo hi)
    | None ->
      Some
        (Printf.sprintf "value '%s' of '%s' is not an integer (expected %d..%d)"
           value name lo hi))
  | Rule.Bool_word ->
    let v = String.lowercase_ascii (String.trim value) in
    if List.mem v [ "on"; "off"; "true"; "false"; "yes"; "no"; "1"; "0" ] then
      None
    else
      Some (Printf.sprintf "value '%s' of '%s' is not a boolean word" value name)
  | Rule.Enum { allowed; ci } ->
    let v = if ci then String.lowercase_ascii value else value in
    let mem =
      List.exists
        (fun a -> (if ci then String.lowercase_ascii a else a) = v)
        allowed
    in
    if mem then None
    else
      Some
        (Printf.sprintf "value '%s' of '%s' is not one of {%s}" value name
           (String.concat ", " allowed))
  | Rule.Custom { expect = _; check } -> check value

let file_sites set =
  List.map (fun (file, root) -> (file, root, collect root)) (Config_set.to_list set)

let finding_at ~rule ~file ~root ~path ?suggestion message =
  Finding.make ?suggestion ~rule_id:rule.Rule.id ~severity:rule.Rule.severity
    ~file ~root ~path message

(* The site walk is itself a view: computed once per checker call, and
   only when some rule reads nodes directly. *)
let sites_view = Rule.view (fun subject -> file_sites (Rule.config subject))

(* A site's name under a rule's canonicalizer. *)
let canonical canon s = if canon == Rule.lower then s.s_lower else canon s.s_node.Node.name

let eval_rule ?nearest subject (rule : Rule.t) =
  let set = Rule.config subject in
  let sites () = Rule.read subject sites_view in
  let out = ref [] in
  let emit f = out := f :: !out in
  (match rule.body with
  | Value { target; name; canon; vtype; missing } ->
    let want = canon name in
    List.iter
      (fun (file, root, nodes) ->
        List.iter
          (fun s ->
            if
              s.s_node.Node.kind = Node.kind_directive
              && canonical canon s = want
              && target_ok target ~file ~section:s.s_section
            then
              match s.s_node.value with
              | None -> (
                match missing with
                | None -> ()
                | Some m ->
                  emit (finding_at ~rule ~file ~root ~path:s.s_path m))
              | Some v -> (
                match check_vtype ~name:s.s_node.name v vtype with
                | None -> ()
                | Some m ->
                  emit (finding_at ~rule ~file ~root ~path:s.s_path m)))
          nodes)
      (sites ())
  | Required { target; file; name; canon } -> (
    let want = canon name in
    match List.find_opt (fun (f, _, _) -> f = file) (sites ()) with
    | None ->
      emit
        {
          Finding.rule_id = rule.id;
          severity = rule.severity;
          file;
          path = [];
          address = "/";
          message =
            Printf.sprintf "file '%s' is missing from the configuration set"
              file;
          suggestion = None;
          related = [];
        }
    | Some (_, root, nodes) ->
      let present =
        List.exists
          (fun s ->
            s.s_node.Node.kind = Node.kind_directive
            && canonical canon s = want
            && target_ok target ~file ~section:s.s_section)
          nodes
      in
      if not present then
        emit
          (finding_at ~rule ~file ~root ~path:[]
             (Printf.sprintf
                "required directive '%s' is missing; the built-in default \
                 applies silently"
                name)))
  | No_duplicates { target; names; canon } ->
    let wanted =
      Option.map (fun l -> List.map canon l) names
    in
    List.iter
      (fun (file, root, nodes) ->
        (* group matched directives by (scope, canonical name) *)
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun s ->
            if
              s.s_node.Node.kind = Node.kind_directive
              && target_ok target ~file ~section:s.s_section
            then begin
              let cname = canonical canon s in
              let matched =
                match wanted with None -> true | Some l -> List.exists (String.equal cname) l
              in
              if matched then begin
                let key = (s.s_scope, cname) in
                let prev = try Hashtbl.find tbl key with Not_found -> [] in
                Hashtbl.replace tbl key (s :: prev)
              end
            end)
          nodes;
        Hashtbl.iter
          (fun (_, cname) occs ->
            let occs = List.rev occs in
            let n = List.length occs in
            if n > 1 then
              List.iteri
                (fun i s ->
                  if i > 0 then
                    emit
                      (finding_at ~rule ~file ~root ~path:s.s_path
                         (Printf.sprintf
                            "duplicate directive '%s' in the same scope (%d \
                             occurrences); replicas are silently merged"
                            cname n)))
                occs)
          tbl)
      (sites ())
  | Unknown { target; kind; known; vocabulary; what } ->
    List.iter
      (fun (file, root, nodes) ->
        List.iter
          (fun s ->
            if
              s.s_node.Node.kind = kind
              && target_ok target ~file ~section:s.s_section
              && not (known s.s_node.name)
            then begin
              let suggestion =
                match (nearest, vocabulary) with
                | Some f, _ :: _ -> (
                  match f ~vocabulary s.s_node.name with
                  | Some (cand, d) when d <= 3 -> Some cand
                  | _ -> None)
                | _ -> None
              in
              emit
                (finding_at ~rule ~file ~root ~path:s.s_path ?suggestion
                   (Printf.sprintf "unknown %s '%s'" what s.s_node.name))
            end)
          nodes)
      (sites ())
  | Implies { target; anchor; check; canon } ->
    List.iter
      (fun (file, root, nodes) ->
        if match target.in_file with None -> true | Some f -> f = file then begin
          let matched =
            List.filter
              (fun s ->
                s.s_node.Node.kind = Node.kind_directive
                && target_ok target ~file ~section:s.s_section)
              nodes
          in
          if matched <> [] then begin
            let lookup name =
              let want = canon name in
              List.fold_left
                (fun acc s ->
                  if canonical canon s = want then
                    Some (Node.value_or ~default:"" s.s_node)
                  else acc)
                None matched
            in
            match check ~lookup with
            | None -> ()
            | Some msg ->
              let path =
                match anchor with
                | None -> []
                | Some a -> (
                  let want = canon a in
                  match
                    List.find_opt
                      (fun s -> canonical canon s = want)
                      matched
                  with
                  | Some s -> s.s_path
                  | None -> [])
              in
              emit (finding_at ~rule ~file ~root ~path msg)
          end
        end)
      (sites ())
  | Reference { target; name; canon; what; exists } ->
    let want = canon name in
    List.iter
      (fun (file, root, nodes) ->
        List.iter
          (fun s ->
            if
              s.s_node.Node.kind = Node.kind_directive
              && canonical canon s = want
              && target_ok target ~file ~section:s.s_section
            then
              match s.s_node.value with
              | None -> ()
              | Some v ->
                if not (exists v) then
                  emit
                    (finding_at ~rule ~file ~root ~path:s.s_path
                       (Printf.sprintf "dangling %s reference: '%s'" what v)))
          nodes)
      (sites ())
  | Relation { target; canon; op; lhs; rhs; describe; per_file; harvest } ->
    (* Ordered bindings within the evaluation scope: directives in
       document order (files in set order), then harvested
       pseudo-directives per file; last occurrence of a name wins, the
       same resolution the SUT applies. *)
    let scope_bindings (file, root, nodes) =
      if match target.Rule.in_file with None -> true | Some f -> f = file
      then begin
        let directives =
          List.filter_map
            (fun s ->
              if
                s.s_node.Node.kind = Node.kind_directive
                && target_ok target ~file ~section:s.s_section
              then
                Some
                  ( canonical canon s,
                    (file, root, s.s_path, s.s_node.Node.value) )
              else None)
            nodes
        in
        let harvested =
          match harvest with
          | None -> []
          | Some h ->
            List.map
              (fun (name, path, v) -> (canon name, (file, root, path, Some v)))
              (h file root)
        in
        directives @ harvested
      end
      else []
    in
    let eval_scope bindings =
      if bindings <> [] then begin
        let lookup name =
          List.fold_left
            (fun acc (n, b) -> if n = name then Some b else acc)
            None bindings
        in
        (* The value that flows into the relation is the one the SUT
           would run with: the parsed written value, or the built-in
           default when the directive is absent or its value unreadable
           (silently rejected and defaulted). *)
        let resolve (t : Rule.term) =
          match lookup (canon t.t_name) with
          | None -> (t, None, t.t_default, true)
          | Some (bfile, broot, bpath, vopt) -> (
            let site = Some (bfile, broot, bpath) in
            match Option.bind vopt t.t_read with
            | Some n -> (t, site, n, false)
            | None -> (t, site, t.t_default, true))
        in
        let eval_linexp (e : Rule.linexp) =
          let rs = List.map resolve e.Rule.l_terms in
          let v =
            List.fold_left
              (fun acc ((t : Rule.term), _, v, _) -> acc + (t.Rule.t_coeff * v))
              e.Rule.l_const rs
          in
          (v, rs)
        in
        let lv, lres = eval_linexp lhs in
        let rv, rres = eval_linexp rhs in
        let resolved = lres @ rres in
        let any_bound = List.exists (fun (_, s, _, _) -> s <> None) resolved in
        if any_bound && not (Rule.rel_holds op lv rv) then begin
          let bound =
            List.filter_map
              (fun (t, s, v, d) ->
                match s with Some si -> Some (t, si, v, d) | None -> None)
              resolved
          in
          match bound with
          | [] -> ()
          | (_, (afile, aroot, apath), _, _) :: rest ->
            let related =
              List.map
                (fun (_, (f, r, p), _, _) -> (f, Finding.address_of_path r p))
                rest
            in
            let detail =
              String.concat ", "
                (List.map
                   (fun ((t : Rule.term), _, v, defaulted) ->
                     Printf.sprintf "%s = %d%s" t.Rule.t_name v
                       (if defaulted then " (default)" else ""))
                   resolved)
            in
            emit
              (Finding.make ~related ~rule_id:rule.Rule.id
                 ~severity:rule.Rule.severity ~file:afile ~root:aroot
                 ~path:apath
                 (Printf.sprintf "relation violated: %s (%s)" describe detail))
        end
      end
    in
    if per_file then List.iter (fun fr -> eval_scope (scope_bindings fr)) (sites ())
    else eval_scope (List.concat_map scope_bindings (sites ()))
  | Check_set f ->
    List.iter
      (fun (raw : Rule.raw) ->
        match Config_set.find set raw.raw_file with
        | Some root ->
          emit
            (finding_at ~rule ~file:raw.raw_file ~root ~path:raw.raw_path
               ?suggestion:raw.raw_suggestion raw.raw_message)
        | None ->
          emit
            {
              Finding.rule_id = rule.id;
              severity = rule.severity;
              file = raw.raw_file;
              path = raw.raw_path;
              address = "/";
              message = raw.raw_message;
              suggestion = raw.raw_suggestion;
              related = [];
            })
      (f subject));
  List.rev !out

(* Every rule against one subject, so each view of the set — the site
   walk included — is computed at most once for the whole rule list. *)
let eval_all ?nearest ~rules set =
  let subject = Rule.subject set in
  List.map (fun rule -> (rule, eval_rule ?nearest subject rule)) rules

let run ?nearest ~rules set =
  let findings = List.concat_map snd (eval_all ?nearest ~rules set) in
  List.sort_uniq (Finding.compare ~file_order:(Config_set.names set)) findings

let run_by_rule ?nearest ~rules set =
  let file_order = Config_set.names set in
  List.map
    (fun (rule, findings) -> (rule, List.sort_uniq (Finding.compare ~file_order) findings))
    (eval_all ?nearest ~rules set)

let exceeds ~threshold findings =
  List.exists (fun f -> Finding.at_least ~threshold f.Finding.severity) findings

let summary findings =
  List.fold_left
    (fun (e, w, i) (f : Finding.t) ->
      match f.severity with
      | Finding.Error -> (e + 1, w, i)
      | Finding.Warning -> (e, w + 1, i)
      | Finding.Info -> (e, w, i + 1))
    (0, 0, 0) findings

let render_text findings =
  match findings with
  | [] -> "no findings\n"
  | _ ->
    let buf = Buffer.create 256 in
    List.iter
      (fun f ->
        Buffer.add_string buf (Finding.to_text f);
        Buffer.add_char buf '\n')
      findings;
    let e, w, i = summary findings in
    Buffer.add_string buf
      (Printf.sprintf "%d finding(s): %d error(s), %d warning(s), %d info\n"
         (List.length findings) e w i);
    Buffer.contents buf

let to_json findings =
  let open Conferr_obsv.Json in
  let e, w, i = summary findings in
  Obj
    [
      ("findings", Arr (List.map Finding.to_json findings));
      ("errors", Num (float_of_int e));
      ("warnings", Num (float_of_int w));
      ("info", Num (float_of_int i));
    ]

let analysis_panel findings =
  let e, w, i = summary findings in
  let tone : Finding.severity -> Conferr_obsv.Report.tone = function
    | Error -> Critical
    | Warning -> Serious
    | Info -> Series
  in
  {
    Conferr_obsv.Report.heading = "Corpus analysis";
    blurb =
      "abstract interpretation over the whole configuration set: relation \
       checks, cross-file reference graph, silent-default taint (doc/lint.md)";
    tiles =
      [
        ("findings", List.length findings, "corpus-level (dataflow) findings");
        ("errors", e, "relation violations");
        ("warnings", w, "shadowing, ordering, graph");
        ("info", i, "silent-default taint");
      ];
    columns =
      [ ("rule", false); ("severity", false); ("site", false); ("finding", false);
        ("related", false) ];
    rows =
      List.map
        (fun (f : Finding.t) ->
          [
            Conferr_obsv.Report.Mono f.rule_id;
            Badge (tone f.severity, Finding.severity_label f.severity);
            Mono (f.file ^ ":" ^ f.address);
            Mono f.message;
            Mono (String.concat ", " (List.map (fun (fl, ad) -> fl ^ ":" ^ ad) f.related));
          ])
        findings;
    empty =
      "no dataflow findings: every relation holds and no written value is \
       masked.";
    noun = "finding";
    command = "conferr analyze --format json";
  }
