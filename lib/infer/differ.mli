(** Rule differ: inferred candidates vs the hand-written rule set
    (doc/infer.md) — the gap taxonomy pointed at ourselves.

    The join key between the two sides is the replayed journal: for
    each hand-written rule id, the set of journal entries on which it
    fires statically (from a {!Conferr_lint_replay.scan}); for each
    candidate, its supporting entries.  A candidate matches a rule
    when their shapes are compatible {e and} either their names agree
    (typed bodies) or their entry sets overlap (opaque [Check_set]
    analyses and [Implies] checks).  Verdicts per hand rule id:

    - {b recovered} — some kept candidate matches it;
    - {b missed-by-inference} — no candidate matches (the journals
      never exercised it, or the evidence was below thresholds);
    - {b contradicted} — an [Agreement]-claim error rule fires on an
      entry the SUT {e accepted} silently: the rule claims the
      validator rejects this, the journal shows it does not.

    Candidates matching no hand rule are {b missed-by-hand}: mined
    constraints the rule set should gain. *)

type rule_verdict = {
  rule_id : string;
  claim : Conferr_lint.Rule.claim;
  fired : string list;         (** entry ids where it fires statically *)
  matched : string list;       (** matching candidate ids *)
  contradicting : string list; (** entry ids refuting an agreement claim *)
}

type t = {
  rules : rule_verdict list;       (** hand rule ids, set order *)
  recovered : string list;
  missed_by_inference : string list;
  contradicted : string list;
  missed_by_hand : string list;    (** candidate ids *)
  matches_of : (string * string list) list;
      (** candidate id -> matching rule ids, candidate order *)
}

val diff :
  hand:Conferr_lint.Rule.t list ->
  replay:Conferr_lint_replay.report ->
  candidates:Candidate.t list -> t

type verdict = Recovered | Missed_by_inference | Contradicted | Missed_by_hand

val verdict_label : verdict -> string
(** ["recovered"], ["missed-by-inference"], ["contradicted"],
    ["missed-by-hand"]. *)

val rule_verdict : string -> t -> verdict
(** For a hand rule id: [Recovered], [Missed_by_inference] or
    [Contradicted] (contradiction wins over recovery). *)

val candidate_verdict : string -> t -> verdict
(** For a candidate id: [Recovered] when it matches a hand rule,
    [Missed_by_hand] otherwise. *)
