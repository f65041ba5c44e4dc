(** The system-independent DNS record representation (paper §5.4).

    Semantic error generation is defined over "an abstract representation
    that shows the DNS records published by each server"; both BIND and
    djbdns configurations are mapped to and from this model. *)

type rdata =
  | A of string                     (** IPv4 address text *)
  | Ns of string
  | Cname of string
  | Soa of soa
  | Ptr of string
  | Mx of int * string              (** preference, exchange *)
  | Txt of string
  | Rp of string * string           (** mbox, txt domain *)
  | Hinfo of string * string        (** cpu, os *)

and soa = {
  mname : string;
  rname : string;
  serial : int;
  refresh : int;
  retry : int;
  expire : int;
  minimum : int;
}

type t = {
  owner : string;                  (** normalized absolute name *)
  ttl : int;
  rdata : rdata;
  tags : (string * string) list;
  (** provenance annotations carried through transformations, e.g.
      [combined] grouping ids for tinydns ["="] lines *)
}

val make : ?ttl:int -> ?tags:(string * string) list -> string -> rdata -> t
(** Owner is normalized via {!Name.normalize}. *)

val rtype : t -> string
(** ["A"], ["NS"], ["CNAME"], ... *)

val tag : t -> string -> string option

val equal : t -> t -> bool
(** Ignores tags. *)

val target : t -> string option
(** The domain name the record points at (NS/CNAME/PTR/MX target),
    [None] for address and text records. *)

val to_string : t -> string
