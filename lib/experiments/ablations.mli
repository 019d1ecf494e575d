(** Ablations over the design choices DESIGN.md calls out — beyond the
    paper's own evaluation.

    Each sweep is a list of hermetic {!Resilix_harness.Trial}s (one
    boot per data point, seeds derived per index), so every sweep
    accepts [?jobs] and parallelizes without changing its output. *)

type heartbeat_row = {
  period_us : int;
  detection_us : int;  (** time from the service wedging to defect class 4 firing *)
}

val heartbeat_sweep :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?seed:int ->
  unit ->
  heartbeat_row list
(** Detection latency of a silently stuck driver as a function of the
    heartbeat period (50 ms to 1 s; misses threshold fixed at the
    default 4). *)

type policy_row = {
  policy : string;
  restarts : int;  (** recoveries during the window *)
  state : string;  (** service lifecycle state at the end of the window *)
}

val policy_comparison :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?seed:int ->
  unit ->
  policy_row list
(** A crash-storming service under the direct, generic (exponential
    backoff) and guarded (give-up) policies for 25 s each: backoff
    bounds the restart churn; give-up stops it. *)

type availability_row = {
  a_policy : string;
  a_injected : int;  (** faults applied to the driver *)
  a_crashes : int;  (** failures detected by RS (recovery spans) *)
  a_restarts : int;  (** failures that ended in a restart *)
  a_downtime_us : int;  (** union of the failures' detection-to-recovery intervals *)
  a_horizon_us : int;  (** measured window, injection start to probe *)
  a_availability : float;  (** percent of the horizon the driver was serving *)
  a_by_class : (string * int * int) list;
      (** defect class name, failures of that class, downtime they
          contributed (us) *)
  a_end_state : string;  (** driver lifecycle state at the end *)
}

val availability_trials : ?seed:int -> unit -> availability_row Resilix_harness.Trial.t list

val availability_study :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?seed:int ->
  unit ->
  availability_row list
(** The policy-v2 ablation: the DP8390 driver absorbs 120 faults of
    the Sec. 7.2 random binary-fault corpus, one every 20 ms, once per
    policy (direct, generic
    backoff, guarded give-up, circuit breaker) and each run is scored
    on availability — downtime from defect detection to recovery,
    split per defect class.  The breaker's parked (degraded) episodes
    are charged as downtime: a failure it absorbed counts until the
    breaker next closes, so the table shows the uptime-vs-churn trade
    honestly. *)

type ipc_row = { operation : string; cost_us : float }

val ipc_microbench :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  unit ->
  ipc_row list
(** Virtual-time cost of the primitives recovery is built from, each
    averaged over 1,000 rounds: rendezvous round trip, notification,
    and grant-checked safecopy at several sizes (the "few microseconds
    ... amortized over the I/O" of Sec. 4). *)

val print_heartbeat : heartbeat_row list -> unit
val print_policy : policy_row list -> unit
val print_availability : availability_row list -> unit
val print_ipc : ipc_row list -> unit
