(** Semantic DNS configuration errors from RFC 1912 (paper §5.4).

    Faults are defined on the abstract record representation and mapped
    back to each server's native format through a {!Codec.t}; faults the
    native format cannot express surface as encode errors, which the
    engine records as not-applicable (the paper's "N/A" entries for
    djbdns). *)

type fault =
  | Missing_ptr
      (** an A record has no matching PTR (RFC 1912 §2.1) — paper err 1 *)
  | Ptr_to_cname
      (** a PTR points at an alias instead of the canonical name — err 2 *)
  | Cname_collision_with_ns
      (** the same name carries both NS and CNAME data — err 3 *)
  | Mx_to_cname
      (** an MX exchange is an alias (RFC 1912 §2.4) — err 4 *)
  | Cname_chain
      (** a CNAME points at another CNAME (RFC 1912 §2.4) *)
  | Missing_forward_a
      (** a PTR whose target has no A record (reverse of err 1) *)

val all_faults : fault list

val paper_faults : fault list
(** The four rows of the paper's Table 3, in order. *)

val fault_description : fault -> string
(** The paper's wording where applicable. *)

val instantiate : fault -> Record.t list -> (Record.t list * string) list
(** All concrete instances of the fault on this record set: each is the
    mutated record list plus a description.  Empty when the record set
    offers no opportunity for the fault. *)

val scenarios :
  codec:Codec.t -> faults:fault list -> Conftree.Config_set.t ->
  Errgen.Scenario.t list
(** End-to-end plugin: decode the configuration, instantiate each fault,
    and wrap every instance as a scenario whose application re-encodes
    through the codec (encode failures surface as scenario errors). *)
