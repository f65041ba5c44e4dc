(** The system-under-test interface.

    The paper's harness needs three system-specific components (§5.1):
    initial configuration files, configuration parsers/serializers, and
    scripts to start/stop the system plus a diagnostic suite.  This
    record is the OCaml rendering of that contract.

    The real SUTs are replaced by in-process simulators (see DESIGN.md
    §2); [boot] plays the role of the start script — it parses the
    serialized configuration bytes with the {e system's own} parser
    (quirks included) and either refuses to start (returning the error
    message an administrator would see) or yields a running instance on
    which the functional tests can be run. *)

type test_result = { test_name : string; passed : bool; detail : string }

type instance = {
  run_tests : unit -> test_result list;
      (** the domain-specific diagnostic suite (create/populate/query a
          database, HTTP GET, forward+reverse DNS lookups) *)
  shutdown : unit -> unit;
}

type t = {
  sut_name : string;
  version : string;     (** e.g. ["MySQL 5.1.22 (simulated)"] *)
  config_files : (string * Formats.Registry.t) list;
      (** file name -> format used by the {e injector} to parse and
          re-serialize this file *)
  default_config : (string * string) list;
      (** file name -> pristine configuration text *)
  boot : (string * string) list -> (instance, string) result;
}

val passed : string -> test_result

val failed : string -> string -> test_result

(** {1 Startup checks with two consumers}

    A simulator writes its startup validation once, as a walk that
    reports each problem it finds with its site.  [boot] stops at the
    first report and refuses to start with its message; the SUT's
    agreement lint rules ({!Lint_rules}) take every report. *)

type problem = {
  file : string;
  path : Conftree.Path.t;
  message : string;  (** what the server prints when it refuses to start *)
  suggestion : string option;
}

type report = problem -> unit

val first_problem : (report -> 'a) -> ('a, string) result
(** [first_problem walk] runs [walk] until it reports its first
    problem: [Error message] then, [Ok] of the walk's result when it
    reports none. *)

val all_problems : (report -> 'a) -> problem list * 'a
(** Every problem [walk] reports, in report order, and its result. *)
