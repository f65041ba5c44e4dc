(** Transformations between native DNS configuration trees and the
    abstract record representation (paper §5.4).

    "A simple transformation maps the data parsed from the configuration
    files of each SUT into this representation.  Another transformation,
    that maps the record representation to the system-specific
    configuration representation, is used to construct the faulty
    configuration files."

    The tinydns encoder fails — by design — on record sets whose faults
    cannot be expressed in the tinydns-data format: a broken ["="]
    pair (A without its PTR, or vice versa) has no serialization, which
    the engine reports as a not-applicable injection. *)

type t = {
  codec_name : string;
  decode : Conftree.Config_set.t -> (Record.t list, string) result;
  encode :
    Record.t list -> Conftree.Config_set.t -> (Conftree.Config_set.t, string) result;
  (** [encode records original_set] rebuilds the configuration files;
      the original set supplies non-record content ($TTL, comments). *)
}

val bind : zones:(string * string) list -> t
(** [bind ~zones] handles BIND master files; [zones] maps each file name
    in the configuration set to its zone origin. *)

val tinydns : file:string -> t
(** [tinydns ~file] handles a tinydns-data file. *)

(** {1 Tag keys used for provenance} *)

val tag_file : string
val tag_combined : string
