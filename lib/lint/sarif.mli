(** Minimal SARIF 2.1.0 emitter for lint findings.

    Renders a {!Finding.t} list as a single-run SARIF log so findings
    load in standard viewers: one [result] per finding with the rule
    id, severity mapped to [error]/[warning]/[note], the file as the
    artifact location and the ConfPath address as the fully-qualified
    logical location; a relation finding's other sites become
    [relatedLocations].  Deterministic — byte-identical output for
    identical findings. *)

val render : Finding.t list -> string
(** The SARIF log, with driver name ["conferr"], followed by a
    newline. *)
