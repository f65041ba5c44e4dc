(** Per-campaign service policy (doc/serve.md).

    The hardening knobs grew up as per-run CLI flags ([--quorum],
    [--breaker], [--timeout], [--retries], [--fuel]); in service mode
    each submitted campaign carries its own copy of them, so one
    campaign's flaky SUT trips {e its} breaker and burns {e its} retry
    budget without touching its neighbours.  This module is the policy
    record plus its JSON codec and validation — the daemon folds a
    validated policy into {!Conferr_exec.Executor.settings} (that fold
    lives in [lib/serve]; this library sits below the executor). *)

type t = {
  jobs_cap : int;          (** most helper domains this campaign takes
                               from the daemon's free ones when it
                               starts; it runs on those it gets, or on
                               the main domain if it gets none *)
  quorum : int;            (** total attempts for crash-suspect outcomes;
                               1 disables re-voting *)
  breaker : int option;    (** consecutive-crash trip threshold per
                               (SUT × fault class) bucket; [None] off *)
  timeout_s : float option;(** per-scenario deadline; [None] off *)
  retries : int;           (** extra attempts after a timeout *)
  fuel : int option;       (** cooperative step budget per execution *)
}

val of_json : ?default:t -> Conferr_obsv.Json.t -> (t, string) result
(** Read the policy fields of a submission object ([jobs], [quorum],
    [breaker], [timeout], [retries], [fuel] — all optional, unknown
    members ignored so the same object can carry [sut]/[seed]).  Every
    present field is validated (positive counts, non-negative timeout);
    the first violation is the [Error]. *)

val to_json : t -> Conferr_obsv.Json.t
(** Full record, for echoing a campaign's effective policy in status
    responses.  [of_json (to_json p) = Ok p]. *)
