module Node = Conftree.Node
module Strutil = Conferr_util.Strutil

let attr_type = "type"
let attr_ttl = "ttl"
let attr_class = "class"
let attr_owner = "owner"

let record ?ttl ~name ~rtype rdata =
  let attrs =
    ((attr_type, rtype) :: (match ttl with None -> [] | Some t -> [ (attr_ttl, t) ]))
    @ [ (attr_owner, name) ]
  in
  Node.make ~name ~value:rdata ~attrs Node.kind_record

let strip_comment line =
  (* A ';' outside quotes starts a comment. *)
  let n = String.length line in
  let rec scan i in_quote =
    if i >= n then line
    else
      match line.[i] with
      | '"' -> scan (i + 1) (not in_quote)
      | ';' when not in_quote -> String.sub line 0 i
      | _ -> scan (i + 1) in_quote
  in
  scan 0 false

(* Merge parenthesized multi-line records into single logical lines. *)
let logical_lines text =
  let rec merge acc pending depth = function
    | [] -> if depth > 0 then Error "unbalanced parentheses" else Ok (List.rev acc)
    | raw :: rest ->
      let stripped = strip_comment raw in
      let opens = String.fold_left (fun n c -> if c = '(' then n + 1 else n) 0 stripped in
      let closes = String.fold_left (fun n c -> if c = ')' then n + 1 else n) 0 stripped in
      let depth' = depth + opens - closes in
      if depth' < 0 then Error "unbalanced parentheses"
      else if depth = 0 && depth' = 0 then merge ((raw, stripped) :: acc) "" 0 rest
      else if depth' > 0 then
        (* keep the opening line's own leading whitespace intact: it
           carries the blank-owner convention *)
        let pending' = if depth = 0 then stripped else pending ^ " " ^ stripped in
        merge acc pending' depth' rest
      else begin
        (* Closing line: flush the merged record with parens removed. *)
        let merged = pending ^ " " ^ stripped in
        let cleaned = String.map (fun c -> if c = '(' || c = ')' then ' ' else c) merged in
        merge ((cleaned, cleaned) :: acc) "" 0 rest
      end
  in
  merge [] "" 0 (Strutil.lines text)

let record_types =
  [ "A"; "AAAA"; "NS"; "CNAME"; "SOA"; "PTR"; "MX"; "TXT"; "RP"; "HINFO"; "SRV"; "NAPTR" ]

(* the entry of a list of uppercase names that [s] spells in any case *)
let rec find_upper s = function
  | [] -> None
  | upper :: rest -> if Strutil.equal_ci s upper then Some upper else find_upper s rest

let is_class s = Option.is_some (find_upper s [ "IN"; "CH"; "HS" ])

let is_ttl s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let parse_record ~lineno ~prev_owner raw stripped =
  let leading_blank = raw <> "" && (raw.[0] = ' ' || raw.[0] = '\t') in
  let fields = Strutil.fields stripped in
  match fields with
  | [] -> Error (Parse_error.make ~line:lineno "empty record")
  | first :: rest ->
    let owner_written, fields =
      if leading_blank then ("", first :: rest) else (first, rest)
    in
    let owner = if owner_written = "" then prev_owner else owner_written in
    (* Optional TTL and class may appear in either order before the type. *)
    let rec eat ttl cls = function
      | f :: rest when is_ttl f && ttl = None -> eat (Some f) cls rest
      | f :: rest when is_class f && cls = None -> eat ttl (Some f) rest
      | f :: rest -> (
        match find_upper f record_types with
        | Some rtype -> Ok (ttl, cls, rtype, String.concat " " rest)
        | None ->
          Error (Parse_error.make ~line:lineno (Printf.sprintf "unknown record type %S" f)))
      | [] -> Error (Parse_error.make ~line:lineno "record is missing a type")
    in
    (match eat None None fields with
     | Error e -> Error e
     | Ok (ttl, cls, rtype, rdata) ->
       let attrs =
         [ (attr_type, rtype); (attr_owner, owner) ]
         @ (match ttl with None -> [] | Some t -> [ (attr_ttl, t) ])
         @ (match cls with None -> [] | Some c -> [ (attr_class, c) ])
       in
       Ok (Node.make ~name:owner_written ~value:rdata ~attrs Node.kind_record, owner))

let parse text =
  match logical_lines text with
  | Error msg -> Error (Parse_error.make msg)
  | Ok lines ->
    let rec go acc prev_owner lineno = function
      | [] -> Ok (Node.root (List.rev acc))
      | (raw, stripped) :: rest ->
        let trimmed = Strutil.trim stripped in
        if trimmed = "" then
          (* Preserve pure comments distinctly from blanks. *)
          let node =
            if Strutil.trim raw <> "" then Node.comment raw else Node.blank
          in
          go (node :: acc) prev_owner (lineno + 1) rest
        else if trimmed.[0] = '$' then begin
          match Strutil.split_on_first ' ' trimmed with
          | Some (dname, dvalue) ->
            let node = Node.directive ~value:(Strutil.trim dvalue) dname in
            go (node :: acc) prev_owner (lineno + 1) rest
          | None ->
            Error (Parse_error.make ~line:lineno (Printf.sprintf "malformed directive %S" trimmed))
        end
        else
          (match parse_record ~lineno ~prev_owner raw stripped with
           | Error e -> Error e
           | Ok (node, owner) -> go (node :: acc) owner (lineno + 1) rest)
    in
    go [] "@" 1 lines

let serialize (tree : Node.t) =
  let buf = Buffer.create 512 in
  try
    List.iter
      (fun (n : Node.t) ->
        match n.kind with
        | k when k = Node.kind_blank -> Buffer.add_char buf '\n'
        | k when k = Node.kind_comment ->
          Buffer.add_string buf (Node.value_or ~default:";" n);
          Buffer.add_char buf '\n'
        | k when k = Node.kind_directive ->
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" n.name (Node.value_or ~default:"" n))
        | k when k = Node.kind_record ->
          let owner = if n.name = "" then "" else n.name in
          let ttl = match Node.attr n attr_ttl with None -> [] | Some t -> [ t ] in
          let cls = match Node.attr n attr_class with None -> [] | Some c -> [ c ] in
          let rtype =
            match Node.attr n attr_type with
            | Some t -> t
            | None -> raise (Failure "record node is missing its type attribute")
          in
          let fields =
            (if owner = "" then [ "" ] else [ owner ])
            @ ttl @ cls
            @ [ rtype; Node.value_or ~default:"" n ]
          in
          Buffer.add_string buf (String.concat "\t" fields);
          Buffer.add_char buf '\n'
        | k when k = Node.kind_section ->
          raise (Failure "zone files have no sections")
        | k -> raise (Failure (Printf.sprintf "cannot express %s nodes" k)))
      tree.children;
    Ok (Buffer.contents buf)
  with Failure msg -> Error msg
