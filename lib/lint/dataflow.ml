module Node = Conftree.Node
module Config_set = Conftree.Config_set

(* --- unit-suffix parsers ------------------------------------------- *)

let split_suffix s =
  let s = String.trim s in
  let n = String.length s in
  let rec digits i =
    if
      i < n
      &&
      match s.[i] with '0' .. '9' -> true | '-' -> i = 0 | _ -> false
    then digits (i + 1)
    else i
  in
  let d = digits 0 in
  if d = 0 || (d = 1 && s.[0] = '-') then None
  else
    let num = String.sub s 0 d in
    let suffix = String.lowercase_ascii (String.trim (String.sub s d (n - d))) in
    match int_of_string_opt num with None -> None | Some v -> Some (v, suffix)

let read_count s =
  match split_suffix s with Some (v, "") -> Some v | _ -> None

let read_kb s =
  match split_suffix s with
  | None -> None
  | Some (v, suffix) -> (
    match suffix with
    | "" | "kb" | "k" -> Some v
    | "b" -> Some (v / 1024)
    | "mb" | "m" -> Some (v * 1024)
    | "gb" | "g" -> Some (v * 1024 * 1024)
    | "tb" | "t" -> Some (v * 1024 * 1024 * 1024)
    | _ -> None)

let read_ms s =
  match split_suffix s with
  | None -> None
  | Some (v, suffix) -> (
    match suffix with
    | "" | "ms" -> Some v
    | "s" | "sec" -> Some (v * 1000)
    | "min" -> Some (v * 60_000)
    | "h" -> Some (v * 3_600_000)
    | "d" -> Some (v * 86_400_000)
    | _ -> None)

let unit_labels = [ "count"; "kb"; "ms" ]

let read_of_unit = function
  | "kb" -> read_kb
  | "ms" -> read_ms
  | _ -> read_count

(* --- directive value specifications -------------------------------- *)

type vkind =
  | Vnum of {
      n_read : string -> int option;
      n_lo : int;
      n_hi : int;
      n_default : int;
      n_lenient : bool;
    }
  | Venum of string list
  | Vbool
  | Vstring

type vspec = { v_name : string; v_kind : vkind }

let num ?(lenient = false) ~read ~lo ~hi ~default name =
  {
    v_name = name;
    v_kind =
      Vnum
        { n_read = read; n_lo = lo; n_hi = hi; n_default = default;
          n_lenient = lenient };
  }

let enum name allowed = { v_name = name; v_kind = Venum allowed }
let boolean name = { v_name = name; v_kind = Vbool }
let str name = { v_name = name; v_kind = Vstring }

(* --- abstract environment ------------------------------------------ *)

type taint = T_explicit | T_masked

type binding = {
  b_name : string;
  b_file : string;
  b_path : Conftree.Path.t;
  b_written : string;
  b_abs : Absval.t;
  b_taint : taint;
  b_effective : string;
}

let true_words = [ "on"; "true"; "yes"; "1" ]
let false_words = [ "off"; "false"; "no"; "0" ]

let abstract_value kind written =
  match kind with
  | Vnum { n_read; n_lo; n_hi; n_default; n_lenient = _ } -> (
    match Option.bind written n_read with
    | Some n when n >= n_lo && n <= n_hi ->
      (Absval.point n, T_explicit, string_of_int n)
    | _ ->
      (* parse failure, out-of-range, or bare directive: the SUT runs
         with its built-in default — the written value is masked *)
      (Absval.point n_default, T_masked, string_of_int n_default))
  | Venum allowed ->
    let v = Option.value ~default:"" written in
    if
      List.exists
        (fun a -> String.lowercase_ascii a = String.lowercase_ascii v)
        allowed
    then (Absval.eset [ v ], T_explicit, v)
    else (Absval.sval v, T_explicit, v)
  | Vbool ->
    let v = Option.value ~default:"" written in
    let w = String.lowercase_ascii (String.trim v) in
    if List.mem w true_words then (Absval.bval true, T_explicit, v)
    else if List.mem w false_words then (Absval.bval false, T_explicit, v)
    else (Absval.sval v, T_explicit, v)
  | Vstring ->
    let v = Option.value ~default:"" written in
    (Absval.sval v, T_explicit, v)

let env_of_set ~specs ~canon set =
  let table = List.map (fun sp -> (canon sp.v_name, sp.v_kind)) specs in
  Config_set.fold_nodes
    (fun file path (node : Node.t) acc ->
      if node.kind = Node.kind_directive then (
        let name = canon node.name in
        match List.assoc_opt name table with
        | None -> acc
        | Some kind ->
          let abs, taint, effective = abstract_value kind node.value in
          {
            b_name = name;
            b_file = file;
            b_path = path;
            b_written = Option.value ~default:"" node.value;
            b_abs = abs;
            b_taint = taint;
            b_effective = effective;
          }
          :: acc)
      else acc)
    set []
  |> List.rev

let tainted env = List.filter (fun b -> b.b_taint = T_masked) env

let summarize env =
  Printf.sprintf "dataflow: %d directive(s) bound, %d tainted"
    (List.length env)
    (List.length (tainted env))

(* --- silent-default taint rule ------------------------------------- *)

let taint_raws ~specs ~canon set =
  let lenient =
    List.filter_map
      (fun sp ->
        match sp.v_kind with
        | Vnum { n_read; n_lo; n_hi; n_default; n_lenient = true } ->
          Some (canon sp.v_name, (n_read, n_lo, n_hi, n_default))
        | _ -> None)
      specs
  in
  Config_set.fold_nodes
    (fun file path (node : Node.t) acc ->
      if node.kind = Node.kind_directive then (
        match List.assoc_opt (canon node.name) lenient with
        | None -> acc
        | Some (n_read, n_lo, n_hi, n_default) -> (
          match node.value with
          | None -> acc
          | Some v -> (
            match n_read v with
            | Some n when n >= n_lo && n <= n_hi -> acc
            | _ ->
              {
                Rule.raw_file = file;
                raw_path = path;
                raw_message =
                  Printf.sprintf
                    "value '%s' of '%s' is silently replaced by the built-in \
                     default %d; the written value is masked"
                    v node.name n_default;
                raw_suggestion = None;
              }
              :: acc)))
      else acc)
    set []
  |> List.rev

let taint_rule ?(id = "DF-TAINT") ?(severity = Finding.Info) ~canon ~specs doc =
  Rule.make ~id ~severity ~doc
    (Rule.Check_set (fun subject -> taint_raws ~specs ~canon (Rule.config subject)))
