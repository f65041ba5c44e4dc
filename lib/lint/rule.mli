(** Declarative constraint IR for static configuration analysis.

    A rule set captures, ahead of execution, the constraints a SUT's own
    validator enforces {e and} the ones it silently omits — the flaw
    tables of the paper's §5 expressed as checkable data.  Rules are
    evaluated by {!Checker} against a {!Conftree.Config_set.t}; each
    violation becomes a {!Finding.t} with a ConfPath address.

    The IR is deliberately small: scoped value checks, required and
    duplicate directives, unknown-name detection with vocabulary-based
    suggestions, cross-directive implications, dangling references, and
    an escape hatch for whole-set semantic analyses (DNS zone
    consistency, XML attribute schemas). *)

(** Where a structural rule applies within a configuration set. *)
type target = {
  in_file : string option;
      (** restrict to this file of the set; [None] = every file *)
  in_section : string option;
      (** restrict by enclosing section name (lowercased); [Some ""]
          means top level only (no enclosing section); [None] =
          anywhere *)
}

val anywhere : target
val top_level : target
val in_file : string -> target
val in_section : ?file:string -> string -> target

(** Expected shape of a directive's value. *)
type vtype =
  | Int_range of int * int  (** decimal integer within bounds, inclusive *)
  | Bool_word  (** on/off, true/false, yes/no, 1/0 (case-insensitive) *)
  | Enum of { allowed : string list; ci : bool }
  | Custom of { expect : string; check : string -> string option }
      (** [expect] describes valid values for documentation; [check]
          returns a violation message, [None] when the value is fine *)

(* Raw finding emitted by a [Check_set] analysis: location plus message,
   before the checker attaches rule id and severity. *)
type raw = {
  raw_file : string;
  raw_path : Conftree.Path.t;
  raw_message : string;
  raw_suggestion : string option;
}

(** Comparison operator of a {!body.Relation} constraint. *)
type rel_op = Rle | Rlt | Rge | Rgt | Req | Rne

val rel_op_label : rel_op -> string
(** ["<="], ["<"], [">="], [">"], ["=="], ["!="]. *)

val rel_op_of_label : string -> rel_op option

val rel_holds : rel_op -> int -> int -> bool

(** One directive reference inside a linear expression.  The term reads
    the directive's written value with [t_read] (a unit-normalizing
    parser: bytes to kB, durations to ms, ...); when the directive is
    absent, or [t_read] rejects its value so the SUT would silently fall
    back to its built-in default (the MySQL-class flaw), [t_default]
    flows into the relation instead of the written value. *)
type term = {
  t_coeff : int;  (** multiplier, e.g. 16 in [pages >= 16 * relations] *)
  t_name : string;  (** canonicalized directive name *)
  t_unit : string;  (** unit class label: ["count"], ["kb"], ["ms"] *)
  t_read : string -> int option;
  t_default : int;
}

(** Linear expression [l_const + sum(coeff_i * value_i)]. *)
type linexp = { l_const : int; l_terms : term list }

val linexp : ?const:int -> term list -> linexp

val term :
  ?coeff:int -> ?unit_label:string ->
  read:(string -> int option) -> default:int -> string -> term

(** The configuration set one {!Checker} call evaluates, together with
    the views computed over it so far. *)
type subject

val subject : Conftree.Config_set.t -> subject
(** A subject with no view computed yet. *)

val config : subject -> Conftree.Config_set.t

(** An analysis of a whole configuration set that several
    {!body.Check_set} rules read: a simulator's startup walk, a decoded
    zone, a resolved section.  Its value is computed at most once per
    subject, by the first rule that reads it, and lives as long as that
    subject — that is, one checker call.  Nothing is cached across calls
    or shared between domains. *)
type 'a view

val view : (subject -> 'a) -> 'a view
(** [view compute]; [compute] may read other views of the same
    subject. *)

val read : subject -> 'a view -> 'a
(** The view's value for this subject, computing it on first read. *)

type body =
  | Value of {
      target : target;
      name : string;
      canon : string -> string;
          (** name normalization applied to both sides before comparing
              (identity, lowercase, dash-folding, ...) *)
      vtype : vtype;
      missing : string option;
          (** violation message when the directive carries no value;
              [None] = a bare directive is acceptable *)
    }
  | Required of { target : target; file : string; name : string; canon : string -> string }
      (** the directive must appear in [file] (within [target.in_section]
          when set) — deletions silently fall back to built-in defaults *)
  | No_duplicates of {
      target : target;
      names : string list option;
          (** restrict to these (canonicalized) names; [None] = all *)
      canon : string -> string;
    }
  | Unknown of {
      target : target;
      kind : string;  (** node kind to check, e.g. [Node.kind_directive] *)
      known : string -> bool;
      vocabulary : string list;
          (** candidate names for "did you mean" suggestions *)
      what : string;  (** message noun: "directive", "element", ... *)
    }
  | Implies of {
      target : target;
      anchor : string option;
          (** directive name to anchor the finding on (first match);
              falls back to the file root *)
      check : lookup:(string -> string option) -> string option;
          (** [lookup] resolves a canonicalized directive name to its
              last value within the target scope; returns the violation
              message *)
      canon : string -> string;
    }
  | Reference of {
      target : target;
      name : string;
      canon : string -> string;
      what : string;  (** "file", "directory", "zone file", ... *)
      exists : string -> bool;
    }
  | Relation of {
      target : target;
      canon : string -> string;
      op : rel_op;
      lhs : linexp;
      rhs : linexp;
      describe : string;
          (** human statement of the constraint, e.g.
              ["max_fsm_pages >= 16 * max_fsm_relations"] *)
      per_file : bool;
          (** [true]: evaluate independently within each file of the set
              (zone-file SOA timers); [false]: evaluate once over the
              whole set with last-occurrence-wins resolution *)
      harvest :
        (string -> Conftree.Node.t -> (string * Conftree.Path.t * string) list)
        option;
          (** extra pseudo-directive bindings mined from a file's tree
              (name, site path, raw value) — lets a relation range over
              values that are not directives, e.g. SOA rdata fields *)
    }
      (** linear/ordering constraint between directives, checked
          statically: violated when [lhs op rhs] is false under the
          values the SUT would actually run with *)
  | Check_set of (subject -> raw list)
      (** whole-set analysis; used for cross-file and semantic rules.
          Rules that need the same analysis of the set read it through
          one {!view}. *)

(** What a rule asserts about the SUT's own validator: [Agreement]
    mirrors a check the validator performs itself (a violation is
    rejected at startup), [Gap] encodes a check the validator omits (a
    violation is accepted silently).  The claim is what makes rules
    falsifiable against campaign journals: an [Agreement]-claim error
    rule firing on a mutant the SUT accepted is contradicted by the
    evidence ([lib/infer]'s differ). *)
type claim = Agreement | Gap | Unspecified

val claim_label : claim -> string
(** ["agreement"], ["gap"], ["unspecified"]. *)

val claim_of_label : string -> claim option

val claim_of_doc : string -> claim
(** Derive the claim from a rule's one-line doc: the existing rule sets
    end each doc with ["(agreement)"] or ["(gap)"]; anything else is
    [Unspecified]. *)

type t = {
  id : string;
  severity : Finding.severity;
  doc : string;  (** one-line statement of the constraint *)
  claim : claim;
  body : body;
}

val make :
  ?claim:claim -> id:string -> severity:Finding.severity -> doc:string ->
  body -> t
(** [claim] defaults to {!claim_of_doc} applied to [doc]. *)

val lower : string -> string
(** [String.lowercase_ascii]. *)
