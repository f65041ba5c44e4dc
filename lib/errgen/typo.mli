(** Spelling-mistake error generator (paper §2.1 and §4.1).

    Five submodels of one-letter typos, each grounded in the
    typographical-error taxonomy of van Berkel & De Smedt:

    - omission: one character is missing
    - insertion: a spurious character appears, produced by a key adjacent
      to one of the word's characters
    - substitution: a character is replaced by one from an adjacent key
      pressed with the same modifiers
    - case alteration: the case of a letter flips (Shift miscoordination)
    - transposition: two adjacent characters swap

    The forward readers draw on one {!pool} per word: the enumerator
    behind {!variants} and the samplers.  The reverse mode
    ({!corrections}) builds no pool: {!is_slip} compares a vocabulary
    word with the typed one directly.  The plugin entry points
    instantiate the abstract modify template over directive names or
    values. *)

type kind = Omission | Insertion | Substitution | Case_alteration | Transposition

val all_kinds : kind list

val kind_name : kind -> string

type pool
(** Every distinct one-letter typo of one word, as slips (a kind, a
    position, a character), grouped by kind in {!all_kinds} order.
    Within a kind the slips run over the word's positions left to right
    and, at each position, over the layout's sorted neighbours of its
    character (insertions: same-key doubling if enabled, then each
    neighbour before and after the position).  A slip that repeats an
    earlier word of the same kind, or gives back the word itself, is
    dropped, so the first occurrence wins; kinds are deduplicated
    separately, by position and character: an omission inside a run of
    one character repeats the run's first, and an insertion of [k]
    repeats the one at the leftmost gap of the run of [k]s before it.
    A slip's word and description are built only when it is drawn or
    listed.  The neighbours come from the layout's table.

    A pool is an immutable value with no cache behind it: a caller
    that draws many typos of one word (the §5.2 faultload, the
    suggester's recovery rate) builds the word's pool once, in a table
    local to that call, and draws from it. *)

val pool : ?layout:Keyboard.Layout.t -> ?include_doubling:bool -> string -> pool
(** [pool word] enumerates the word's typos on [layout] (default US
    QWERTY).  [include_doubling] (default false, beyond the paper's
    model) adds same-key doubling to the insertion submodel. *)

val variants :
  ?layout:Keyboard.Layout.t -> ?include_doubling:bool -> kind -> string ->
  (string * string) list
(** [variants kind word] is the kind's part of [pool word], with a
    description each.  The original word is never among the results;
    the list is empty when the word is too short or the layout cannot
    produce the needed neighbours. *)

val random_variant :
  ?layout:Keyboard.Layout.t -> Conferr_util.Rng.t -> kind -> string ->
  (string * string) option
(** One uniformly-chosen variant of that kind, if any exists. *)

val draw_any : Conferr_util.Rng.t -> pool -> (string * string) option
(** One variant drawn uniformly from the whole pool — kinds with more
    concrete slips are proportionally likelier, as when sampling the
    typo space itself.  It draws one [Rng.int] over the pool's size, and
    nothing from an empty pool.  The description is prefixed with the
    kind's name. *)

val random_any :
  ?layout:Keyboard.Layout.t -> Conferr_util.Rng.t -> string -> (string * string) option
(** [draw_any] on a fresh pool of the word. *)

val random_kind_first :
  ?layout:Keyboard.Layout.t -> Conferr_util.Rng.t -> string -> (string * string) option
(** One variant of a uniformly-chosen non-empty kind of the word's pool:
    every submodel is equally represented.  One [Rng.int] over the
    non-empty kinds, then one over that kind's variants. *)

val uniform_substitutions :
  ?layout:Keyboard.Layout.t -> string -> (string * string) list
(** Ablation model: one-character substitutions drawn from the {e whole}
    layout rather than the adjacent keys — what a keyboard-oblivious
    fuzzer would inject.  Used to quantify how much the keyboard model
    changes resilience estimates. *)

(** {1 Plugin entry points} *)

type part = Name | Value

val scenarios :
  ?layout:Keyboard.Layout.t ->
  class_prefix:string ->
  part:part ->
  kinds:kind list ->
  Template.target ->
  Conftree.Config_set.t ->
  Scenario.t list
(** Exhaustive: every typo of the given kinds in the chosen part of every
    directive matched by the target.  Only directives are mutated; for
    [part = Value] only directives that have a value. *)

val wordview_scenarios :
  ?layout:Keyboard.Layout.t ->
  class_prefix:string ->
  word_type:string ->
  kinds:kind list ->
  file:string ->
  Conftree.Config_set.t ->
  Scenario.t list
(** The paper's two-stage pipeline (§3.2): exhaustive typos generated on
    the {!Wordview} token representation ([word_type] is
    ["directive-name"], ["directive-value"] or ["section-name"]) and
    mapped back through the stored references.  Equivalent to
    {!scenarios} on the corresponding part. *)

(** {1 Reverse mode (doc/repair.md)}

    Repair synthesis runs the typo model backwards: given a word the
    SUT's vocabulary does not know, which vocabulary words could a
    one-letter slip have produced it from? *)

val is_slip : ?layout:Keyboard.Layout.t -> intended:string -> string -> bool
(** [is_slip ~intended typed] holds when one modelled slip turns
    [intended] into [typed]: exactly when [typed] is in
    [intended]'s {!pool} (without same-key doubling).  It compares the
    two words directly, by their common prefix and suffix, and reads
    the layout only where they differ: one character omitted; a
    neighbour key of the character before or after it inserted; one
    character replaced by a neighbour key, or one letter's case
    flipped; two adjacent characters swapped. *)

val corrections :
  ?layout:Keyboard.Layout.t -> ?max_distance:int -> vocabulary:string list ->
  string -> (string * int) list
(** [corrections ~vocabulary word] ranks the vocabulary words [word]
    plausibly resulted from, closest first.  A vocabulary word that
    {!is_slip} explains is ranked by its true Damerau-Levenshtein
    distance but always ahead of words merely within [max_distance]
    (default 2) that no single modelled slip explains; ties break
    lexicographically.  Every slip is one Damerau-Levenshtein edit, so
    only vocabulary words at distance 1 from [word] are checked for a
    slip, and no pool is built; a word whose length differs from
    [word]'s by more than [max max_distance 1] gets no distance
    computed at all.  [word] itself is never returned. *)
