(* The qualified-name export sweep (test/exports.t).

   Usage: exports.exe LIB CALLER_DIR...

   Reads every [val] in LIB's .mli files and every Module.value path in
   the .ml and .mli files under LIB and the caller directories, comments
   and string literals left out.  A path names an export of module M when
   its last module is M, resolved through the library prefix it carries
   ([Conferr.Engine.run] is lib/core's Engine), through a module alias
   declared in the same file ([module J = Conferr_exec.Journal]), or else
   through the caller's own library.  Prints, sorted, the exports that no
   file other than their own module names, and then those that other
   files reach only through an alias.  One pass over the sources. *)

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then if name = "_build" then [] else files path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'

(* The source with comments (nested) and string literals blanked. *)
let code_of text =
  let n = String.length text in
  let b = Bytes.of_string text in
  let blank i = if Bytes.get b i <> '\n' then Bytes.set b i ' ' in
  let rec skip_string i =
    if i >= n then i
    else if text.[i] = '\\' then (blank i; if i + 1 < n then blank (i + 1); skip_string (i + 2))
    else if text.[i] = '"' then (blank i; i + 1)
    else (blank i; skip_string (i + 1))
  in
  let rec skip_comment depth i =
    if i >= n then i
    else if i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' then
      (blank i; blank (i + 1); skip_comment (depth + 1) (i + 2))
    else if i + 1 < n && text.[i] = '*' && text.[i + 1] = ')' then (
      blank i; blank (i + 1);
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2))
    else if text.[i] = '"' then (blank i; skip_comment depth (skip_string (i + 1)))
    else (blank i; skip_comment depth (i + 1))
  in
  let rec go i =
    if i < n then
      if i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' then go (skip_comment 0 i)
      else if text.[i] = '"' then (blank i; go (skip_string (i + 1)))
      else if text.[i] = '\'' && i + 2 < n && text.[i + 2] = '\'' then go (i + 3)
      else if text.[i] = '\'' && i + 3 < n && text.[i + 1] = '\\' && text.[i + 3] = '\''
      then go (i + 4)
      else go (i + 1)
  in
  go 0;
  Bytes.to_string b

(* Every dotted path [A.B.c] or [A.B] in the code, as its components. *)
let paths code =
  let n = String.length code in
  let rec ident i = if i < n && is_ident code.[i] then ident (i + 1) else i in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_upper code.[i] && (i = 0 || not (is_ident code.[i - 1] || code.[i - 1] = '.'))
    then begin
      let rec comps i parts =
        let j = ident i in
        let parts = String.sub code i (j - i) :: parts in
        if j + 1 < n && code.[j] = '.' && is_ident code.[j + 1] && code.[j + 1] <> '\''
        then comps (j + 1) parts
        else (j, List.rev parts)
      in
      let j, parts = comps i [] in
      go j (parts :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* [module X = P.M] and [let module X = P.M in]: X -> [P; M]. *)
let aliases code =
  String.split_on_char '\n' code
  |> List.filter_map (fun line ->
         let rec find = function
           | "module" :: x :: "=" :: target :: _
             when is_upper x.[0] && is_upper target.[0]
                  && String.for_all (fun c -> is_ident c || c = '.') target ->
             Some (x, String.split_on_char '.' target)
           | _ :: rest -> find rest
           | [] -> None
         in
         find (List.filter (( <> ) "") (String.split_on_char ' ' line)))

let () =
  let lib = Sys.argv.(1) in
  let callers = lib :: List.tl (List.tl (Array.to_list Sys.argv)) in
  (* library name -> directory, from lib/*/dune *)
  let libraries =
    Sys.readdir lib |> Array.to_list
    |> List.concat_map (fun d ->
           let dune = Filename.concat (Filename.concat lib d) "dune" in
           if not (Sys.file_exists dune) then []
           else
             let words =
               String.map (fun c -> if c = '(' || c = ')' || c = '\n' then ' ' else c) (read dune)
               |> String.split_on_char ' ' |> List.filter (( <> ) "")
             in
             let rec names = function
               | "name" :: n :: rest -> (String.capitalize_ascii n, Filename.concat lib d) :: names rest
               | _ :: rest -> names rest
               | [] -> []
             in
             names words)
  in
  let exports =
    files lib
    |> List.filter (fun f -> Filename.check_suffix f ".mli")
    |> List.concat_map (fun mli ->
           let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename mli)) in
           String.split_on_char '\n' (read mli)
           |> List.filter_map (fun l ->
                  if String.length l > 4 && String.sub l 0 4 = "val " then
                    let rest = String.sub l 4 (String.length l - 4) in
                    let len = ref 0 in
                    while !len < String.length rest && is_ident rest.[!len] do incr len done;
                    Some (mli, m, String.sub rest 0 !len)
                  else None))
  in
  (* (dir, module) of a path's modules, resolved for a caller in [dir] *)
  let resolve ~dir mods =
    let m = List.nth mods (List.length mods - 1) in
    let in_dir d = Sys.file_exists (Filename.concat d (String.uncapitalize_ascii m ^ ".mli")) in
    match List.filter_map (fun p -> List.assoc_opt p libraries) mods with
    | d :: _ when in_dir d -> [ (d, m) ]
    | _ ->
      if in_dir dir then [ (dir, m) ]
      else
        List.filter_map
          (fun (mli, m', _) -> if m' = m then Some (Filename.dirname mli, m) else None)
          exports
        |> List.sort_uniq compare
  in
  let direct = Hashtbl.create 4096 and via_alias = Hashtbl.create 64 in
  List.iter
    (fun file ->
      let dir = Filename.dirname file in
      let own = String.capitalize_ascii (Filename.remove_extension (Filename.basename file)) in
      let code = code_of (read file) in
      let alias_of = aliases code in
      List.iter
        (fun parts ->
          match List.rev parts with
          | v :: (_ :: _ as rev_mods) when not (is_upper v.[0]) ->
            let mods = List.rev rev_mods in
            let mods, alias =
              match List.assoc_opt (List.hd mods) alias_of with
              | Some target ->
                let renamed = List.nth target (List.length target - 1) <> List.hd mods in
                (target @ List.tl mods, if renamed then Some (List.hd mods) else None)
              | None -> (mods, None)
            in
            List.iter
              (fun (d, m) ->
                if not (d = dir && m = own) then
                  match alias with
                  | None -> Hashtbl.replace direct (d, m, v) ()
                  | Some a ->
                    if not (Hashtbl.mem via_alias (d, m, v)) then
                      Hashtbl.replace via_alias (d, m, v) (Printf.sprintf "%s in %s" a file))
              (resolve ~dir mods)
          | _ -> ())
        (paths code))
    (List.concat_map files callers);
  let unreached, aliased =
    List.fold_left
      (fun (u, a) (mli, m, v) ->
        let key = (Filename.dirname mli, m, v) in
        if Hashtbl.mem direct key then (u, a)
        else
          match Hashtbl.find_opt via_alias key with
          | Some where -> (u, Printf.sprintf "%s %s (%s)" mli v where :: a)
          | None -> (Printf.sprintf "%s %s" mli v :: u, a))
      ([], []) exports
  in
  print_endline "no file outside the module names:";
  List.iter (Printf.printf "  %s\n") (List.sort compare unreached);
  print_endline "reached only through an alias:";
  List.iter (Printf.printf "  %s\n") (List.sort compare aliased)
