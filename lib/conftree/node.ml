type t = {
  kind : string;
  name : string;
  value : string option;
  attrs : (string * string) list;
  children : t list;
}

let kind_root = "root"
let kind_section = "section"
let kind_directive = "directive"
let kind_comment = "comment"
let kind_blank = "blank"
let kind_line = "line"
let kind_word = "word"
let kind_record = "record"
let kind_element = "element"
let kind_text = "text"

let make ?(name = "") ?value ?(attrs = []) ?(children = []) kind =
  { kind; name; value; attrs; children }

let root children = make ~children kind_root

let section ?attrs name children = make ?attrs ~name ~children kind_section

let directive ?attrs ?value name = make ?attrs ?value ~name kind_directive

let comment text = make ~value:text kind_comment

let blank = make kind_blank

let attr t key = List.assoc_opt key t.attrs

let set_attr t key v = { t with attrs = (key, v) :: List.remove_assoc key t.attrs }

let remove_attr t key = { t with attrs = List.remove_assoc key t.attrs }

let value_or ~default t = Option.value ~default t.value

let rec equal a b =
  a.kind = b.kind && a.name = b.name && a.value = b.value && a.attrs = b.attrs
  && List.length a.children = List.length b.children
  && List.for_all2 equal a.children b.children

let rec equal_modulo_attrs a b =
  a.kind = b.kind && a.name = b.name && a.value = b.value
  && List.length a.children = List.length b.children
  && List.for_all2 equal_modulo_attrs a.children b.children

let rec get t = function
  | [] -> Some t
  | i :: rest ->
    (match List.nth_opt t.children i with
     | None -> None
     | Some c -> get c rest)

let fold f t init =
  let rec go path t acc =
    let acc = f path t acc in
    List.fold_left
      (fun (i, acc) c -> (i + 1, go (path @ [ i ]) c acc))
      (0, acc) t.children
    |> snd
  in
  go [] t init

let find_all pred t =
  fold (fun path n acc -> if pred n then (path, n) :: acc else acc) t [] |> List.rev

(* A pre-order search that stops at the first match; only the path to
   the node it returns is reversed into place. *)
let find_first pred t =
  let rec go rpath t =
    if pred t then Some (List.rev rpath, t) else scan rpath 0 t.children
  and scan rpath i = function
    | [] -> None
    | c :: rest ->
      (match go (i :: rpath) c with Some _ as found -> found | None -> scan rpath (i + 1) rest)
  in
  go [] t

let update t path f =
  let rec go t = function
    | [] -> Some (f t)
    | i :: rest ->
      (match List.nth_opt t.children i with
       | None -> None
       | Some c ->
         (match go c rest with
          | None -> None
          | Some c' ->
            Some { t with children = List.mapi (fun j x -> if j = i then c' else x) t.children }))
  in
  go t path

let replace t path node = update t path (fun _ -> node)

let delete t path =
  match Path.parent path with
  | None -> None
  | Some (parent_path, idx) ->
    (match get t parent_path with
     | None -> None
     | Some parent when idx >= List.length parent.children -> None
     | Some _ ->
       update t parent_path (fun p ->
           { p with children = List.filteri (fun j _ -> j <> idx) p.children }))

let insert_child t ~parent ~index node =
  match get t parent with
  | None -> None
  | Some p ->
    let n = List.length p.children in
    let index = if index < 0 then 0 else if index > n then n else index in
    let before = List.filteri (fun j _ -> j < index) p.children in
    let after = List.filteri (fun j _ -> j >= index) p.children in
    update t parent (fun p -> { p with children = before @ (node :: after) })

let append_child t ~parent node =
  match get t parent with
  | None -> None
  | Some p -> insert_child t ~parent ~index:(List.length p.children) node

let duplicate t path =
  match (get t path, Path.parent path) with
  | Some node, Some (parent, idx) -> insert_child t ~parent ~index:(idx + 1) node
  | _, _ -> None

let move t ~src ~dst_parent ~index =
  if Path.is_prefix ~prefix:src dst_parent then None
  else
    match get t src with
    | None -> None
    | Some node ->
      (match delete t src with
       | None -> None
       | Some t' ->
         (match Path.adjust_after_delete ~deleted:src dst_parent with
          | None -> None
          | Some dst' ->
            (* When moving within the same parent to a later position, the
               deletion shifted the insertion index by one. *)
            let index =
              match Path.parent src with
              | Some (p, i) when Path.equal p dst_parent && index > i -> index - 1
              | Some _ | None -> index
            in
            insert_child t' ~parent:dst' ~index node))

let copy t ~src ~dst_parent ~index =
  match get t src with
  | None -> None
  | Some node -> insert_child t ~parent:dst_parent ~index node

let rec map_nodes f t = f { t with children = List.map (map_nodes f) t.children }

let rec pp_level level fmt t =
  let indent = String.make (2 * level) ' ' in
  Format.fprintf fmt "%s%s" indent t.kind;
  if t.name <> "" then Format.fprintf fmt " %S" t.name;
  (match t.value with None -> () | Some v -> Format.fprintf fmt " = %S" v);
  List.iter (fun (k, v) -> Format.fprintf fmt " @%s=%S" k v) t.attrs;
  List.iter
    (fun c ->
      Format.pp_print_newline fmt ();
      pp_level (level + 1) fmt c)
    t.children

let pp fmt t = pp_level 0 fmt t

let to_string t = Format.asprintf "%a" pp t
