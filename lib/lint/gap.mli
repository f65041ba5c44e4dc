(** Validator-gap taxonomy: static verdict × dynamic outcome.

    The paper's headline findings are validator gaps — misconfigurations
    the SUT accepts silently or rejects only at run time.  This module
    classifies each (static lint verdict, journaled dynamic outcome)
    pair into the taxonomy the gap report and dashboard panel use. *)

(** What the static pass concluded about one mutant. *)
type static_verdict =
  | Clean  (** no finding at Warning or above *)
  | Flagged of Finding.severity
      (** maximum severity across findings (Warning or Error) *)
  | Unparseable of string
      (** the serialized mutant does not parse in the native format *)
  | Inexpressible of string
      (** the mutation could not be applied or serialized at all *)

val verdict_of_findings : Finding.t list -> static_verdict
(** [Clean] when nothing reaches Warning; [Flagged max] otherwise. *)

val static_label : static_verdict -> string
(** ["clean"], ["warning"], ["error"], ["syntax"], ["n/a"]. *)

type kind =
  | Silent_acceptance
      (** lint flags the mutant, the SUT started and passed — the
          validator gap the paper's flaw tables catalogue *)
  | Late_failure
      (** lint flags the mutant, the SUT started but failed its
          functional tests — detected, but only at run time *)
  | Over_strict
      (** lint saw nothing, the SUT refused to start — either a lint
          blind spot or an overly strict validator *)
  | Agree_detected  (** both flag the mutant (SUT refused to start) *)
  | Agree_clean  (** both accept the mutant *)
  | Lint_miss
      (** lint saw nothing, the functional tests failed — the static
          pass itself has a gap *)
  | Not_comparable
      (** inexpressible scenarios, crashes, unmatched journal entries *)

val all_kinds : kind list
(** In report order. *)

val kind_label : kind -> string
(** ["silent-acceptance"], ["late-failure"], ["over-strict"],
    ["agree-detected"], ["agree-clean"], ["lint-miss"],
    ["not-comparable"]. *)

val is_gap : kind -> bool
(** The three headline disagreement kinds: silent acceptance, late
    failure, over-strict. *)

val classify : static:static_verdict -> outcome_label:string -> kind
(** [outcome_label] is {!Conferr.Outcome.label}: ["startup"],
    ["functional"], ["ignored"], ["n/a"], ["crashed"]. *)

val classify_deep :
  static:static_verdict -> gap_claimed:bool -> outcome_label:string -> kind
(** Claim-aware refinement used by [conferr gaps --deep]: when the
    flagging rules include one with a {!Rule.claim.Gap} claim
    ([gap_claimed]) and the SUT indeed accepted the mutant silently,
    the pair counts as [Agree_detected] — the rule {e predicted} the
    silent acceptance and the journal confirms it — instead of
    [Silent_acceptance].  All other pairs classify as {!classify}. *)
