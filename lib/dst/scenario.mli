(** Exploration scenarios: boot + workload + fault plan, in a box.

    A scenario is the unit the explorer permutes: it boots a fresh
    machine under a given engine tie-break {!Resilix_sim.Engine.policy},
    runs a workload while a {!Fault_plan.t} fires against it, and
    distills the run into a {!report} that the invariant checker can
    judge without re-inspecting the machine.

    The record is public on purpose: tests and examples build custom
    scenarios (e.g. with an artificially tight bound or a broken
    workload) to force violations deterministically. *)

type breaker_row = {
  b_component : string;  (** the guarded service's stable name *)
  b_state : string;  (** ["closed"] / ["open"] / ["half-open"] *)
  b_trips : int;  (** transitions into [open] *)
  b_probes : int;  (** half-open probe restarts attempted *)
  b_threshold : int;  (** the breaker's trip threshold *)
  b_failures : int;  (** recovery events recorded for the component *)
  b_overdue : bool;
      (** the breaker has been open for longer than its cooldown plus
          slack without a probe — the probe machinery is stuck *)
}
(** One circuit breaker's end-of-run snapshot, judged by the
    [breaker-bound] and [degraded-probe] invariants. *)

type storm_stats = {
  s_requests : int;  (** requests the load generator was asked to issue *)
  s_completed : int;  (** responses received whole, digest verified *)
  s_refused : int;  (** connection attempts RST before established (backlog overflow / degraded) *)
  s_resets : int;  (** connections reset after established *)
  s_timeouts : int;  (** requests aborted at the client deadline *)
  s_mismatches : int;  (** responses with wrong bytes (must be 0) *)
  s_failed : int;  (** requests that exhausted their retry budget *)
  s_retries : int;  (** re-connect attempts beyond the first per request *)
  s_degraded_rejects : int;  (** INET fast-fail rejections while the driver was parked *)
  s_accept_refused : int;  (** SYNs refused because the listener backlog was full *)
  s_served : int;  (** responses the httpd workers streamed to completion *)
  s_bytes_in : int;  (** response bytes the clients received *)
  s_p50 : int;  (** request-latency quantiles, us (issue to verified) *)
  s_p95 : int;
  s_p99 : int;
  s_goodput : int array;  (** client bytes received per [s_bin_us] bin of virtual time *)
  s_bin_us : int;
  s_outage_at : int;  (** virtual time of the first planned kill (0 = none) *)
  s_recovered_by : int;  (** close time of the last recovery span (0 = none) *)
}
(** End-of-run summary of a storm workload, judged by the
    [storm-accounting] and [goodput-flatline] invariants and rendered
    by [resilix storm]. *)

type report = {
  r_completed : bool;  (** the workload made progress / finished *)
  r_checksum_ok : bool;  (** transferred data matched its digest *)
  r_endpoints_ok : bool;
      (** DS naming table agrees with the kernel's live process table
          for every target service (a degraded service counts as
          consistent exactly when DS publishes no endpoint for it) *)
  r_applied : int;  (** plan entries that actually hit a live process *)
  r_expected_spans : int;
      (** applied kills — each must produce a closed recovery span *)
  r_recoveries : int;  (** closed recovery spans observed *)
  r_spans : Resilix_obs.Span.t;  (** the machine's span collector *)
  r_end_time : int;  (** virtual clock at probe time, us *)
  r_decisions : int array;  (** the engine's recorded tie-break trace *)
  r_degraded : string list;
      (** components published as degraded in DS at probe time *)
  r_breakers : breaker_row list;  (** per-breaker snapshots *)
  r_shape : int64;
      (** the run's coverage fingerprint: FNV-1a over the recovery-span
          shape ({!Resilix_obs.Span.shape_fingerprint}), the trace's
          recovery-event order ({!Resilix_obs.Event.shape_add}) and the
          end-state degraded/breaker sets — identity fields only, no
          timestamps.  Together with the violated-invariant set this is
          the run's coverage {e signature} (see [Corpus]). *)
  r_storm : storm_stats option;  (** present only for storm scenarios *)
}

type t = {
  name : string;  (** stable id used in repro files ([find name]) *)
  targets : string list;  (** services the plan generator aims at *)
  default_faults : int;  (** plan length when the caller has no opinion *)
  plan : seed:int -> faults:int -> Fault_plan.t;
      (** pure plan generator; the explorer calls it with per-run
          derived seeds *)
  run : seed:int -> policy:Resilix_sim.Engine.policy -> plan:Fault_plan.t -> report;
      (** boot a fresh machine with [engine_policy = policy], execute
          the workload under [plan], and report.  Must be hermetic: a
          pure function of its three arguments. *)
}

val make :
  name:string ->
  ?targets:string list ->
  ?default_faults:int ->
  ?plan:(seed:int -> faults:int -> Fault_plan.t) ->
  run:(seed:int -> policy:Resilix_sim.Engine.policy -> plan:Fault_plan.t -> report) ->
  unit ->
  t
(** Smart constructor: [targets] defaults to none, [default_faults] to
    0 and [plan] to the empty plan, so workload-only scenarios (and
    test scenarios) don't have to spell out every field. *)

val apply_plan : Resilix_system.System.t -> Fault_plan.t -> int ref * int ref
(** Schedule every plan entry on the machine's engine; an entry due
    before the engine's current time fires at the current time instead
    of raising.  Returns the [(applied, expected_spans)] counters, live
    until the engine has run past the last entry. *)

val wget_kills : t
(** ["wget"]: a 1 MB HTTP transfer over the RTL8139 while the plan
    SIGKILLs the driver (the paper's Sec. 7.1 workload, explorable). *)

val wget_sized : ?name:string -> size:int -> unit -> t
(** {!wget_kills} with a custom transfer size (and name, default
    ["wget-<size>k"]) — smaller transfers make cheap per-run smoke
    batches for guided exploration.  Not a builtin: replays of repro
    files produced from it must pass the scenario explicitly. *)

val dp_inject : t
(** ["dp-inject"]: receive-side UDP traffic through the DP8390 while
    the plan injects binary faults (Sec. 7.2, explorable). *)

val flaky : t
(** ["flaky"]: the audio driver is replaced by a program that panics
    forever while an application keeps issuing [/dev/audio] writes.
    Under the ["breaker"] policy the component must end parked (open
    breaker, [`Degraded], published in ["degraded.*"]) and the
    application must keep receiving prompt, clean errors — never a
    hang, never unbounded restart churn. *)

val storm : t
(** ["storm"]: the C10K workload at exploration scale — 64 requests at
    concurrency 32 against an 8-worker {!Resilix_apps.Httpd} pool
    (listener backlog 16) while the plan SIGKILLs the RTL8139
    mid-storm.  The report carries {!storm_stats}; the small scale
    keeps per-run cost low enough for [resilix explore] to fuzz. *)

val storm_sized :
  ?name:string -> requests:int -> concurrency:int -> workers:int -> backlog:int -> unit -> t
(** {!storm} at a chosen scale (name default ["storm-<requests>"]) —
    the CLI runs 500-request storms through this.  Not a builtin:
    replays of repro files produced from it must pass the scenario
    explicitly. *)

val storm_lines : report -> string list
(** Human-readable storm summary (latency quantiles, error counts,
    goodput timeline).  Virtual-time only: byte-identical across
    hosts, [--jobs] values and repeats. *)

val builtins : t list

val find : string -> t option
(** Resolve a scenario by [name] — how replay maps a repro file back
    to executable code. *)
