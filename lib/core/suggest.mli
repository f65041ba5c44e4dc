(** "Did you mean ...?" analysis of rejected directive names.

    A resilience profile shows {e that} a system rejects a typo; this
    module measures what a rejection {e could} recover.  Given the
    vocabulary of known names, it ranks candidates by Damerau-Levenshtein distance and
    estimates how often a nearest-name suggestion would point the
    operator straight back at the directive they meant — the parser
    improvement a developer would wire in after reading a ConfErr
    report. *)

val nearest : vocabulary:string list -> string -> (string * int) option
(** The closest known name and its edit distance; ties break towards the
    lexicographically smaller name.  [None] on an empty vocabulary. *)

type summary = { per_word : (string * float) list; mean : float }

val recoverability :
  vocabulary:string list -> rng:Conferr_util.Rng.t -> ?samples:int -> unit -> summary
(** For every vocabulary word, the share of [samples] (default 50)
    random one-letter typos whose unique nearest vocabulary entry is the
    word itself — the share of name typos a "did you mean" suggestion
    would repair.  Typos that land on another valid name, or tie between
    several names, count as not recovered. *)

val render : summary -> string
