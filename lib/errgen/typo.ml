module Node = Conftree.Node
module Strutil = Conferr_util.Strutil
module Rng = Conferr_util.Rng
module Layout = Keyboard.Layout

type kind = Omission | Insertion | Substitution | Case_alteration | Transposition

let all_kinds = [ Omission; Insertion; Substitution; Case_alteration; Transposition ]

let kind_name = function
  | Omission -> "omission"
  | Insertion -> "insertion"
  | Substitution -> "substitution"
  | Case_alteration -> "case-alteration"
  | Transposition -> "transposition"

let default_layout = Layout.us_qwerty

(* One concrete slip of the model.  The mutated word and the
   description are built from the word only when a drawn or listed
   variant needs them. *)
type slip =
  | Omit of int
  | Double of int
  | Insert_before of int * char
  | Insert_after of int * char
  | Substitute of int * char
  | Flip of int * char
  | Transpose of int

let describe word = function
  | Omit i -> Printf.sprintf "omit %C at position %d" word.[i] i
  | Double i -> Printf.sprintf "double %C at position %d" word.[i] i
  | Insert_before (i, c) -> Printf.sprintf "insert %C before position %d" c i
  | Insert_after (i, c) -> Printf.sprintf "insert %C after position %d" c i
  | Substitute (i, c) ->
    Printf.sprintf "substitute %C for %C at position %d" c word.[i] i
  | Flip (i, _) -> Printf.sprintf "flip case of %C at position %d" word.[i] i
  | Transpose i -> Printf.sprintf "transpose positions %d and %d" i (i + 1)

let apply word = function
  | Omit i -> Strutil.delete_char word i
  | Double i -> Strutil.insert_char word i word.[i]
  | Insert_before (i, c) -> Strutil.insert_char word i c
  | Insert_after (i, c) -> Strutil.insert_char word (i + 1) c
  | Substitute (i, c) | Flip (i, c) -> Strutil.replace_char word i c
  | Transpose i -> Strutil.swap_chars word i

type pool = { word : string; by_kind : (kind * slip array) list }

let pool ?(layout = default_layout) ?(include_doubling = false) word =
  let n = String.length word in
  (* The spurious or substituted character comes from a key adjacent to
     the character being typed (paper §4.1).  Same-key doubling is a
     realistic extension beyond the paper's model, available opt-in. *)
  let near i = Layout.neighbors layout word.[i] in
  (* Inserting [k] at gap [g] (before position [g]) gives the word of
     the insertion at [s], the leftmost gap of the run of [k]s ending at
     [g].  The first slip with that word comes from position [s - 1]
     (inserting after it), else from [s] (doubling it), else it is this
     one: no set of words is needed to keep the first occurrence. *)
  let first_insertion g k =
    let rec start s = if s > 0 && word.[s - 1] = k then start (s - 1) else s in
    let s = start g in
    (not (s > 0 && List.mem k (near (s - 1)))) && not (include_doubling && s < g)
  in
  let of_kind kind =
    let slips = ref [] in
    let emit slip = slips := slip :: !slips in
    for i = 0 to n - 1 do
      let c = word.[i] in
      match kind with
      | Omission ->
        (* omitting any character of a run gives the same word *)
        if n > 1 && (i = 0 || word.[i - 1] <> c) then emit (Omit i)
      | Insertion ->
        if include_doubling && first_insertion i c then emit (Double i);
        List.iter
          (fun k ->
            if first_insertion i k then emit (Insert_before (i, k));
            (* [c] is not [k], so no earlier slip inserts [k] at [i + 1] *)
            emit (Insert_after (i, k)))
          (near i)
      | Substitution ->
        List.iter (fun k -> if k <> c then emit (Substitute (i, k))) (near i)
      | Case_alteration ->
        if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then (
          match Layout.shift_variant layout c with
          | Some flipped when flipped <> c -> emit (Flip (i, flipped))
          | Some _ | None -> ())
      | Transposition -> if i + 1 < n && c <> word.[i + 1] then emit (Transpose i)
    done;
    (kind, Array.of_list (List.rev !slips))
  in
  { word; by_kind = List.map of_kind all_kinds }

let labelled p kind slip =
  (apply p.word slip, Printf.sprintf "%s: %s" (kind_name kind) (describe p.word slip))

let pick rng slips =
  if Array.length slips = 0 then None
  else Some slips.(Rng.int rng (Array.length slips))

let variant word slip = (apply word slip, describe word slip)

let variants ?layout ?include_doubling kind word =
  Array.to_list (List.assoc kind (pool ?layout ?include_doubling word).by_kind)
  |> List.map (variant word)

let random_variant ?layout rng kind word =
  pick rng (List.assoc kind (pool ?layout word).by_kind) |> Option.map (variant word)

(* Uniform over the whole one-letter typo space: kinds with more
   concrete slips (substitutions, insertions) are proportionally more
   likely, as when drawing a random subset of typos (paper §4.1). *)
let draw_any rng p =
  let rec nth i = function
    | [] -> None
    | (kind, slips) :: rest ->
      if i < Array.length slips then Some (labelled p kind slips.(i))
      else nth (i - Array.length slips) rest
  in
  match List.fold_left (fun n (_, slips) -> n + Array.length slips) 0 p.by_kind with
  | 0 -> None
  | size -> nth (Rng.int rng size) p.by_kind

let random_any ?layout rng word = draw_any rng (pool ?layout word)

(* Uniform over kinds first, then over that kind's variants: each
   submodel is equally represented regardless of how many concrete
   slips it has (used by the §5.5 benchmark, which draws exactly one
   typo per experiment). *)
let random_kind_first ?layout rng word =
  let p = pool ?layout word in
  match Rng.pick_opt rng (List.filter (fun (_, s) -> Array.length s > 0) p.by_kind) with
  | None -> None
  | Some (kind, slips) -> Option.map (labelled p kind) (pick rng slips)

(* Ablation variant: substitutions drawn from the whole layout instead of
   the adjacent keys — what a keyboard-oblivious fuzzer would inject.
   Distinct (position, character) pairs give distinct words, none of
   them the original. *)
let uniform_substitutions ?(layout = default_layout) word =
  let chars = Layout.all_chars layout in
  List.concat
    (List.init (String.length word) (fun i ->
         chars
         |> List.filter (fun c -> c <> word.[i])
         |> List.map (fun c ->
                ( Strutil.replace_char word i c,
                  Printf.sprintf "substitute %C for %C at position %d (uniform)" c
                    word.[i] i ))))

type part = Name | Value

let directive_only (n : Node.t) = n.kind = Node.kind_directive

let mutate_part layout ~class_suffix part make_variants (n : Node.t) =
  if not (directive_only n) then []
  else
    match part with
    | Name ->
      make_variants layout n.name
      |> List.map (fun (w, d) ->
             ({ n with Node.name = w }, Printf.sprintf "%s in name: %s" class_suffix d))
    | Value ->
      (match n.value with
       | None -> []
       | Some v ->
         make_variants layout v
         |> List.map (fun (w, d) ->
                ( { n with Node.value = Some w },
                  Printf.sprintf "%s in value: %s" class_suffix d )))

let scenarios ?(layout = default_layout) ~class_prefix ~part ~kinds tgt set =
  kinds
  |> List.concat_map (fun kind ->
         let class_name = Printf.sprintf "%s/%s" class_prefix (kind_name kind) in
         Template.modify ~class_name
           ~mutate:
             (mutate_part layout ~class_suffix:(kind_name kind) part
                (fun layout w -> variants ~layout kind w))
           tgt set)

(* The paper's two-stage pipeline (§3.2 / Figure 2.c): map the
   structural tree to the word-token view, mutate tokens there, and let
   the stored back-references rewrite the original tree.  Functionally
   equivalent to the direct path above — asserted by tests — but
   demonstrates the representation-mapping architecture end to end. *)
let wordview_scenarios ?(layout = default_layout) ~class_prefix ~word_type ~kinds ~file
    set =
  match Conftree.Config_set.find set file with
  | None -> []
  | Some tree ->
    let view = Wordview.of_tree tree in
    Wordview.words ~word_type view
    |> List.concat_map (fun (token_path, (token : Node.t)) ->
           let text = Node.value_or ~default:"" token in
           kinds
           |> List.concat_map (fun kind ->
                  variants ~layout kind text
                  |> List.map (fun (mutated, what) ->
                         Scenario.make ~id:""
                           ~class_name:
                             (Printf.sprintf "%s/%s" class_prefix (kind_name kind))
                           ~description:
                             (Printf.sprintf "%s: %s in %s token %S of %s"
                                (kind_name kind) what word_type text file)
                           (fun set ->
                             match Conftree.Config_set.find set file with
                             | None -> Error (Printf.sprintf "file %S missing" file)
                             | Some tree ->
                               let view = Wordview.of_tree tree in
                               (match
                                  Node.update view token_path (fun w ->
                                      { w with Node.value = Some mutated })
                                with
                                | None -> Error "word token vanished from the view"
                                | Some view' ->
                                  (match Wordview.apply_to_tree ~word_view:view' tree with
                                   | Error msg -> Error msg
                                   | Ok tree' ->
                                     Ok (Conftree.Config_set.add set file tree')))))))

(* [pool intended] holds [typed] exactly when the two words differ as
   one slip says.  Compared through their common prefix [p] and suffix
   [s]; the keyboard is read only where they differ. *)
let is_slip ?(layout = default_layout) ~intended typed =
  let n = String.length intended and m = String.length typed in
  let rec prefix i =
    if i < n && i < m && intended.[i] = typed.[i] then prefix (i + 1) else i
  in
  let rec suffix k =
    if k < n && k < m && intended.[n - 1 - k] = typed.[m - 1 - k] then suffix (k + 1)
    else k
  in
  let p = prefix 0 and s = suffix 0 in
  let neighbour c k = List.mem k (Layout.neighbors layout c) in
  if m = n then
    if p = n then false
    else if p + s = n - 1 then
      (* one position differs: a neighbour key, or the case flipped *)
      let c = intended.[p] and k = typed.[p] in
      let letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
      neighbour c k || (letter && Layout.shift_variant layout c = Some k)
    else p + s = n - 2 && intended.[p] = typed.[p + 1] && intended.[p + 1] = typed.[p]
  else if m = n - 1 then n > 1 && p + s >= m
  else if m = n + 1 && p + s >= n then
    (* [typed] is [intended] with [k] inserted anywhere in [n - s .. p];
       inside that range [k] repeats [intended]'s own characters, which
       are never their own neighbours, so only its ends can match *)
    let k = typed.[p] in
    (p < n && neighbour intended.[p] k) || (n - s > 0 && neighbour intended.[n - s - 1] k)
  else false

(* Reverse mode (doc/repair.md): rank the vocabulary words a typo could
   have come from.  One-slip explanations (the forward model reproduces
   the word exactly) sort ahead of bare edit-distance neighbours. *)
let corrections ?(layout = default_layout) ?(max_distance = 2) ~vocabulary word =
  (* the length difference bounds the distance from below: past it a
     word is neither within [max_distance] nor one slip away *)
  let reach = max max_distance 1 in
  vocabulary
  |> List.filter_map (fun w ->
         if w = word || abs (String.length w - String.length word) > reach then None
         else
           let d = Conferr_util.Strutil.damerau_levenshtein w word in
           (* every modelled slip is one edit *)
           let slip = d = 1 && is_slip ~layout ~intended:w word in
           if slip || d <= max_distance then Some (w, d, slip) else None)
  |> List.sort (fun (a, da, sa) (b, db, sb) ->
         match (sa, sb) with
         | true, false -> -1
         | false, true -> 1
         | _ ->
           let c = compare da db in
           if c <> 0 then c else compare a b)
  |> List.map (fun (w, d, _) -> (w, d))
