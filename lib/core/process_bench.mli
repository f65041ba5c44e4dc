(** The §5.5 configuration-process benchmark.

    "A configuration process can be viewed as the transformation of an
    initial configuration file into a new configuration file. [...]
    ConfErr uses a benchmark script to automatically transform initial
    configuration files into new, valid files; afterward, it creates
    faulty configuration files based on these new files [...]  Errors are
    injected in close proximity to the place where the file has been
    (validly) modified, thus aiming to simulate the common way in which
    errors sneak into configurations."

    A {!task} is one valid administrator edit (set a directive to a new,
    valid value).  For each task, the benchmark applies the edit, then
    injects value typos into directives within two positions of the
    edited one, and measures how many injections the system
    detects. *)

type task = { directive : string; new_value : string }

type task_result = {
  task : task;
  injections : int;
  detected : int;
      (** startup- or functional-test detections among [injections] *)
}

type t = { sut_name : string; task_results : task_result list }

val run :
  rng:Conferr_util.Rng.t ->
  ?experiments:int ->
  sut:Suts.Sut.t ->
  config:(string * string) ->
  tasks:task list ->
  unit ->
  (t, string) result
(** [experiments] typos per task (default 20), each injected at most
    two directives from the valid edit.
    Tasks whose directive is absent from the configuration are
    reported with zero injections. *)

val render : t -> string
