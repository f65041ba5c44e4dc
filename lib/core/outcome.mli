(** Classification of one error-injection experiment (paper §3.1).

    Three outcomes are possible once a faulty configuration reaches the
    SUT, plus one for scenarios whose mutation cannot be applied or
    serialized into the native format at all (paper §3.2: "differences in
    the expressiveness of the two representations can prevent this
    operation from completing successfully"), plus one for scenarios
    that took the harness itself down — a SUT that raised through the
    sandbox, overran its deadline or fuel budget, or was skipped by a
    tripped circuit breaker (doc/harden.md). *)

type crash_phase =
  | Boot     (** the SUT crashed while parsing/starting on the faulty files *)
  | Test     (** the SUT started, then crashed under the functional tests *)
  | Harness  (** the harness gave up: timeout, breaker skip, … *)

type crash_cause =
  | Uncaught of string       (** printed exception from the SUT *)
  | Stack_overflow_crash     (** [Stack_overflow] escaped the simulator *)
  | Out_of_memory_crash      (** [Out_of_memory] escaped the simulator *)
  | Fuel_exhausted of int    (** cooperative step budget (the argument) ran out *)
  | Timeout of float         (** every attempt overran this many seconds *)
  | Breaker_open of string
      (** classified without execution: the circuit breaker for this
          (SUT × fault class) bucket was open *)

type crash = {
  cause : crash_cause;
  phase : crash_phase;
  backtrace : string;  (** captured backtrace; may be empty *)
}

type t =
  | Startup_failure of string
      (** the SUT refused to start — it detected the configuration error *)
  | Test_failure of string list
      (** the SUT started but the functional tests failed (one message
          per failed test) — the error escaped the parser *)
  | Passed
      (** the SUT started and passed all tests: the mutation was either
          harmless or silently ignored *)
  | Not_applicable of string
      (** the scenario could not be expressed in the system's
          configuration language *)
  | Crashed of crash
      (** the injection did not complete normally: the SUT (or the
          harness around it) crashed, hung, or was skipped *)

val detected : t -> bool
(** Startup, functional-test, or crash detection — a crash surfaces the
    error loudly, it just does so by taking the process down rather than
    by diagnosing it. *)

val label : t -> string
(** ["startup"], ["functional"], ["ignored"], ["n/a"], ["crashed"]. *)

val phase_label : crash_phase -> string
(** ["boot"], ["test"], ["harness"]. *)

val phase_of_label : string -> crash_phase option
(** Inverse of {!phase_label}. *)

val cause_to_string : crash_cause -> string
(** Machine-readable cause code (["exn:…"], ["stack-overflow"],
    ["out-of-memory"], ["fuel:N"], ["timeout:S"], ["breaker:…"]) as
    stored in the journal. *)

val cause_of_string : string -> crash_cause option
(** Exact inverse of {!cause_to_string}. *)

val crash_summary : crash -> string
(** ["<cause summary> [<phase>]"] — stable across runs (no backtrace),
    so it can feed signature clustering. *)
