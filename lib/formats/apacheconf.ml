module Node = Conftree.Node
module Strutil = Conferr_util.Strutil

let attr_arg = "arg"

type frame = { name : string; arg : string; mutable nodes : Node.t list }

(* [String.trim]'s blanks (a line holds no '\n') *)
let is_space c = c = ' ' || c = '\012' || c = '\r' || c = '\t'

(* what separates a name from its arguments, as httpd splits them *)
let is_blank c = c = ' ' || c = '\t'

(* Scans over [s] from [i] up to [j] (excluded), each stopping at [j]
   at the latest: to the first character that is not [is_space], to
   the first [is_blank], to the first [c]; and back from [j] past the
   [is_space] characters that end [i, j). *)
let rec skip_space s i j = if i < j && is_space s.[i] then skip_space s (i + 1) j else i

let rec find_blank s i j = if i < j && not (is_blank s.[i]) then find_blank s (i + 1) j else i

let rec find_char c s i j = if i < j && s.[i] <> c then find_char c s (i + 1) j else i

let rec trim_end s i j = if j > i && is_space s.[j - 1] then trim_end s i (j - 1) else j

(* [String.trim (String.sub s i (j - i))], without the untrimmed copy *)
let trimmed_sub s i j =
  let i = skip_space s i j in
  String.sub s i (trim_end s i j - i)

let parse text =
  let push frame node = frame.nodes <- node :: frame.nodes in
  let finish frame =
    Node.section
      ~attrs:(if frame.arg = "" then [] else [ (attr_arg, frame.arg) ])
      frame.name
      (List.rev frame.nodes)
  in
  let fail lineno msg = Error (Parse_error.make ~line:lineno msg) in
  let len = String.length text in
  (* Line by line, by index into [text]: the line starts at [start];
     [top] is the innermost open section and [outer] the ones around
     it, the root's frame outermost. *)
  let rec line start lineno top outer =
    if start >= len then
      match outer with
      | [] -> Ok (Node.root (List.rev top.nodes))
      | _ :: _ ->
        Error (Parse_error.make (Printf.sprintf "section <%s> is never closed" top.name))
    else
      let stop = find_char '\n' text start len in
      let next = stop + 1 and lineno' = lineno + 1 in
      (* the line without its surrounding blanks is [a, b) *)
      let a = skip_space text start stop in
      let b = trim_end text a stop in
      if a = b then (
        push top Node.blank;
        line next lineno' top outer)
      else if text.[a] = '#' then (
        push top (Node.comment (String.sub text start (stop - start)));
        line next lineno' top outer)
      else if text.[a] = '<' && a + 1 < b && text.[a + 1] = '/' then begin
        let name = trimmed_sub text (a + 2) (find_char '>' text (a + 2) b) in
        match outer with
        | parent :: outer ->
          if not (Strutil.equal_ci top.name name) then
            fail lineno
              (Printf.sprintf "closing tag </%s> does not match open section <%s>" name
                 top.name)
          else (
            push parent (finish top);
            line next lineno' parent outer)
        | [] -> fail lineno (Printf.sprintf "stray closing tag </%s>" name)
      end
      else if text.[a] = '<' then begin
        let j = find_char '>' text a b in
        if j = b then fail lineno "unterminated section tag"
        else
          (* the name ends at the first blank (space or tab) *)
          let k = find_blank text (a + 1) j in
          let name = trimmed_sub text (a + 1) k in
          let arg = if k < j then trimmed_sub text (k + 1) j else "" in
          line next lineno' { name; arg; nodes = [] } (top :: outer)
      end
      else begin
        (* The name ends at the first blank (space or tab). *)
        let k = find_blank text a b in
        let name = String.sub text a (k - a) in
        let value = if k < b then Some (trimmed_sub text k b) else None in
        push top (Node.directive ?value name);
        line next lineno' top outer
      end
  in
  line 0 1 { name = ""; arg = ""; nodes = [] } []

let serialize (tree : Node.t) =
  let buf = Buffer.create 512 in
  let rec emit indent (n : Node.t) =
    let pad = String.make (2 * indent) ' ' in
    match n.kind with
    | k when k = Node.kind_blank -> Buffer.add_char buf '\n'
    | k when k = Node.kind_comment ->
      Buffer.add_string buf (Node.value_or ~default:"#" n);
      Buffer.add_char buf '\n'
    | k when k = Node.kind_directive ->
      Buffer.add_string buf pad;
      Buffer.add_string buf n.name;
      (match n.value with
       | None -> ()
       | Some v ->
         (* A "sep" attribute lets whitespace variations round-trip. *)
         Buffer.add_string buf (Option.value ~default:" " (Node.attr n "sep"));
         Buffer.add_string buf v);
      Buffer.add_char buf '\n'
    | k when k = Node.kind_section ->
      Buffer.add_string buf pad;
      (match Node.attr n attr_arg with
       | Some arg -> Buffer.add_string buf (Printf.sprintf "<%s %s>\n" n.name arg)
       | None -> Buffer.add_string buf (Printf.sprintf "<%s>\n" n.name));
      List.iter (emit (indent + 1)) n.children;
      Buffer.add_string buf pad;
      Buffer.add_string buf (Printf.sprintf "</%s>\n" n.name)
    | k -> raise (Failure (Printf.sprintf "cannot express %s nodes" k))
  in
  try
    List.iter (emit 0) tree.children;
    Ok (Buffer.contents buf)
  with Failure msg -> Error msg
