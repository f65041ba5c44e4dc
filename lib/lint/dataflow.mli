(** Abstract interpretation over a whole configuration set.

    Maps every specified directive to an {!Absval.t} describing the
    value the SUT would actually run with — unit suffixes normalized,
    silently-defaulted (masked) values replaced by their built-in
    default — so relation checks and taint reports reason about
    effective values, not written text.  The substrate behind
    [conferr analyze] and [conferr lint --deep]. *)

(** {1 Unit-suffix parsers}

    Generic normalizing readers used by rule-file-compiled relation
    terms (SUT-native rule sets plug in their own parsers, e.g.
    [Mini_pg.parse_mem]). *)

val read_count : string -> int option
(** Plain decimal integer, no suffix. *)

val unit_labels : string list
(** [\["count"; "kb"; "ms"\]] — the unit classes {!read_of_unit}
    understands; also the vocabulary [Rule_file] serializes. *)

val read_of_unit : string -> string -> int option
(** [read_of_unit u] is {!read_kb} for ["kb"], {!read_ms} for ["ms"],
    {!read_count} otherwise. *)

(** {1 Directive value specifications} *)

type vkind =
  | Vnum of {
      n_read : string -> int option;
      n_lo : int;
      n_hi : int;
      n_default : int;
      n_lenient : bool;
          (** [true]: the SUT silently clamps/defaults bad values
              (the MySQL-class flaw) — masked sites become taint
              findings *)
    }
  | Venum of string list
  | Vbool
  | Vstring

type vspec = { v_name : string; v_kind : vkind }

val num :
  ?lenient:bool -> read:(string -> int option) -> lo:int -> hi:int ->
  default:int -> string -> vspec

val enum : string -> string list -> vspec
val boolean : string -> vspec
val str : string -> vspec

(** {1 Abstract environment} *)

(** Whether the abstract value reflects the written text ([T_explicit])
    or the built-in default that silently replaces it ([T_masked]:
    parse failure, out-of-range, or bare directive). *)
type taint = T_explicit | T_masked

type binding = {
  b_name : string;  (** canonicalized directive name *)
  b_file : string;
  b_path : Conftree.Path.t;
  b_written : string;  (** written value, [""] for bare directives *)
  b_abs : Absval.t;
  b_taint : taint;
  b_effective : string;
      (** rendering of the concrete value the SUT runs with; the
          soundness property checks [Absval.contains_string b_abs
          b_effective] *)
}

val env_of_set :
  specs:vspec list -> canon:(string -> string) -> Conftree.Config_set.t ->
  binding list
(** One binding per specified directive occurrence, in file order of
    the set then document order — deterministic. *)

val summarize : binding list -> string
(** ["dataflow: N directive(s) bound, M tainted"]. *)

(** {1 Silent-default taint rule} *)

val taint_rule :
  ?id:string -> ?severity:Finding.severity -> canon:(string -> string) ->
  specs:vspec list -> string -> Rule.t
(** [taint_rule ~canon ~specs doc] is a {!Rule.body.Check_set} rule
    flagging every site whose written value a lenient ([n_lenient])
    numeric spec would silently replace with its default.  [id]
    defaults to ["DF-TAINT"], [severity] to [Info]. *)
