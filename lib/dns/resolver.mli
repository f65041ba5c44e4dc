(** In-memory authoritative resolution over a set of zones.

    Used by the DNS SUT simulators to answer the functional-test queries
    (forward A lookup and reverse PTR lookup, paper §5.1). *)

type t

val create : Zone.t list -> t

type response =
  | Answer of Record.t list
      (** records of the queried type, possibly preceded by the CNAME
          chain followed to reach them *)
  | No_data       (** the name exists but has no records of that type *)
  | Nx_domain     (** the name does not exist in any served zone *)
  | Not_authoritative  (** no served zone contains the name *)
  | Cname_loop

val query : t -> name:string -> rtype:string -> response
(** CNAME chasing: when the owner has a CNAME and the query is for a
    different type, the chain is followed (up to 8 hops) inside the
    served zones. *)
