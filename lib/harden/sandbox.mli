(** The cooperative fuel budget around the injection pipeline
    (doc/harden.md).

    Exception containment — the [Crashed {cause; phase; backtrace}]
    taxonomy — lives in {!Conferr.Engine}.  The sandbox adds a per-call
    step budget that simulators burn through {!tick}, so a runaway
    simulator ends as [Crashed (Fuel_exhausted _)] instead of spinning
    its worker forever. *)

exception Out_of_fuel of int
(** {!Conferr.Engine.Out_of_fuel}, raised by {!tick} when the current
    call's budget runs out; the payload is the initial budget. *)

val tick : unit -> unit
(** Burn one unit of the calling thread's fuel budget.
    A no-op when the caller is not running under {!boot_and_test} or
    {!run_scenario} with a fuel budget — simulators can call it
    unconditionally. *)

val boot_and_test :
  ?fuel:int ->
  ?probe:Conferr_obsv.Span.probe ->
  Suts.Sut.t ->
  (string * string) list ->
  Conferr.Outcome.t
(** {!Conferr.Engine.boot_and_test} with a [fuel] step budget installed
    for the call; without [fuel] it is exactly the engine's. *)

val run_scenario :
  ?fuel:int ->
  ?probe:Conferr_obsv.Span.probe ->
  sut:Suts.Sut.t ->
  base:Conftree.Config_set.t ->
  Errgen.Scenario.t ->
  Conferr.Outcome.t
(** {!Conferr.Engine.run_scenario} with a [fuel] step budget installed
    for the call. *)
