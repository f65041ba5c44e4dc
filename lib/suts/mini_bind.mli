(** Simulated ISC BIND 9.4 name server.

    Behaviours reproduced (paper §5.4 and Table 3):

    - each record is written separately in master zone files, so every
      RFC-1912 fault is expressible (unlike tinydns-data)
    - zone-load consistency checks: a CNAME colliding with other data at
      the same name, or an MX/NS target that is an alias, make the zone
      refuse to load with an explanatory message (errors 3 and 4
      "found"); a zone without SOA is refused
    - no check relates forward and reverse zones: a missing PTR or a PTR
      pointing at an alias loads fine (errors 1 and 2 "not found") *)

val sut : Sut.t

val forward_zone_file : string
val reverse_zone_file : string
val forward_origin : string
val reverse_origin : string

val zones : (string * string) list
(** [(file, origin)] pairs, as needed by {!Dnsmodel.Codec.bind}. *)

(** {1 Exposed for the static rule set ({!Lint_rules.for_sut})} *)

type zone_decl = {
  zone_file : string;
  origin : string;
  file_site : Conftree.Path.t;  (** the zone's [file] statement in named.conf *)
}

val read_named_conf : Sut.report -> Conftree.Node.t -> zone_decl list
(** named's reading of the parsed named.conf: reports each problem
    with its site (unknown blocks and options, a missing directory, a
    bad [recursion], a zone without a known [type] or a [file]) and
    returns the zones declared with a file, in order. *)

val check_zone_files : Sut.report -> exists:(string -> bool) -> zone_decl list -> unit
(** named's next check: every declared master file must exist. *)
