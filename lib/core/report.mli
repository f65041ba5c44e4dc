(** Full per-SUT assessment reports.

    Bundles everything ConfErr can say about one system — the typo
    resilience profile (with per-class and per-cognitive-level
    summaries), the structural-variation support table, and for DNS
    servers the semantic fault results — into a single document for the
    developer (the paper's "prompt feedback during development" use
    case). *)

type section = { title : string; body : string }

type t = { sut_name : string; version : string; sections : section list }

val generate :
  ?seed:int ->
  ?faultload:Campaign.faultload ->
  ?excluded_variations:Errgen.Variations.class_name list ->
  ?semantic_codec:Dnsmodel.Codec.t ->
  Suts.Sut.t ->
  t
(** Runs the applicable campaigns.  [semantic_codec] enables the
    RFC-1912 section for DNS SUTs. *)

val render : t -> string
(** Markdown-ish rendering with section headers. *)
