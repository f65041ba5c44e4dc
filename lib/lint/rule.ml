type target = { in_file : string option; in_section : string option }

let anywhere = { in_file = None; in_section = None }
let top_level = { in_file = None; in_section = Some "" }
let in_file f = { in_file = Some f; in_section = None }

let in_section ?file s =
  { in_file = file; in_section = Some (String.lowercase_ascii s) }

type vtype =
  | Int_range of int * int
  | Bool_word
  | Enum of { allowed : string list; ci : bool }
  | Custom of { expect : string; check : string -> string option }

type raw = {
  raw_file : string;
  raw_path : Conftree.Path.t;
  raw_message : string;
  raw_suggestion : string option;
}

type rel_op = Rle | Rlt | Rge | Rgt | Req | Rne

let rel_op_label = function
  | Rle -> "<="
  | Rlt -> "<"
  | Rge -> ">="
  | Rgt -> ">"
  | Req -> "=="
  | Rne -> "!="

let rel_op_of_label = function
  | "<=" -> Some Rle
  | "<" -> Some Rlt
  | ">=" -> Some Rge
  | ">" -> Some Rgt
  | "==" -> Some Req
  | "!=" -> Some Rne
  | _ -> None

let rel_holds op lhs rhs =
  match op with
  | Rle -> lhs <= rhs
  | Rlt -> lhs < rhs
  | Rge -> lhs >= rhs
  | Rgt -> lhs > rhs
  | Req -> lhs = rhs
  | Rne -> lhs <> rhs

type term = {
  t_coeff : int;
  t_name : string;
  t_unit : string;
  t_read : string -> int option;
  t_default : int;
}

type linexp = { l_const : int; l_terms : term list }

let linexp ?(const = 0) terms = { l_const = const; l_terms = terms }

let term ?(coeff = 1) ?(unit_label = "count") ~read ~default name =
  {
    t_coeff = coeff;
    t_name = name;
    t_unit = unit_label;
    t_read = read;
    t_default = default;
  }

(* A view's value sits next to its type witness, so one list holds the
   views of every type. *)
type computed = Computed : 'a Type.Id.t * 'a -> computed

type subject = { config : Conftree.Config_set.t; mutable computed : computed list }

type 'a view = { v_id : 'a Type.Id.t; v_compute : subject -> 'a }

let subject config = { config; computed = [] }
let config s = s.config
let view compute = { v_id = Type.Id.make (); v_compute = compute }

let read (type a) s (v : a view) : a =
  let rec find : computed list -> a option = function
    | [] -> None
    | Computed (id, x) :: rest -> (
      match Type.Id.provably_equal id v.v_id with
      | Some Type.Equal -> Some x
      | None -> find rest)
  in
  match find s.computed with
  | Some x -> x
  | None ->
    let x = v.v_compute s in
    s.computed <- Computed (v.v_id, x) :: s.computed;
    x

type body =
  | Value of {
      target : target;
      name : string;
      canon : string -> string;
      vtype : vtype;
      missing : string option;
    }
  | Required of {
      target : target;
      file : string;
      name : string;
      canon : string -> string;
    }
  | No_duplicates of {
      target : target;
      names : string list option;
      canon : string -> string;
    }
  | Unknown of {
      target : target;
      kind : string;
      known : string -> bool;
      vocabulary : string list;
      what : string;
    }
  | Implies of {
      target : target;
      anchor : string option;
      check : lookup:(string -> string option) -> string option;
      canon : string -> string;
    }
  | Reference of {
      target : target;
      name : string;
      canon : string -> string;
      what : string;
      exists : string -> bool;
    }
  | Relation of {
      target : target;
      canon : string -> string;
      op : rel_op;
      lhs : linexp;
      rhs : linexp;
      describe : string;
      per_file : bool;
      harvest :
        (string -> Conftree.Node.t -> (string * Conftree.Path.t * string) list)
        option;
    }
  | Check_set of (subject -> raw list)

type claim = Agreement | Gap | Unspecified

let claim_label = function
  | Agreement -> "agreement"
  | Gap -> "gap"
  | Unspecified -> "unspecified"

let claim_of_label = function
  | "agreement" -> Some Agreement
  | "gap" -> Some Gap
  | "unspecified" -> Some Unspecified
  | _ -> None

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;
  claim : claim;
  body : body;
}

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let claim_of_doc doc =
  let doc = String.trim doc in
  if ends_with ~suffix:"(agreement)" doc then Agreement
  else if ends_with ~suffix:"(gap)" doc then Gap
  else Unspecified

let make ?claim ~id ~severity ~doc body =
  let claim = match claim with Some c -> c | None -> claim_of_doc doc in
  { id; severity; doc; claim; body }

let lower = String.lowercase_ascii
