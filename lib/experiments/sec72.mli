(** Sec. 7.2 — the software fault-injection campaign.

    The paper injected 12,500 single random faults (7 binary-mutation
    types) into the running DP8390 driver under Bochs, observing 347
    detectable crashes: 65% internal panics, 31% CPU/MMU-exception
    kills, 4% missed-heartbeat restarts — with 100% successful
    recovery.  On real hardware >99% recovered; in a handful of cases
    the NIC wedged and needed a BIOS-level reset.

    This harness reruns that campaign inside the simulator: faults are
    injected into the driver's loaded code image while UDP traffic
    flows; crash classes fall out of execution (consistency-check
    panics, MMU faults / illegal instructions, runaway loops), and the
    wedgeable-hardware variant reproduces the BIOS-reset cases.

    The campaign is {e sharded}: the fault budget is cut into
    fixed-size batches, each a hermetic {!Resilix_harness.Trial} that
    boots its own machine on a seed derived from the shard index
    ([Rng.derive]).  Shard layout depends only on [faults] and
    [shard_size] — never on the worker count — so the merged outcome
    is identical for any [jobs].  This is what lets the default run
    cover the paper's full 12,500 faults. *)

type outcome = {
  injected : int;  (** faults actually applied *)
  crashes : int;  (** detected failures *)
  panics : int;  (** defect class 1 (exit/panic) *)
  exceptions : int;  (** defect class 2 (CPU/MMU exception) *)
  heartbeats : int;  (** defect class 4 (missed heartbeats) *)
  other : int;  (** remaining classes (e.g. complaints) *)
  recovered : int;  (** crashes followed by a completed restart *)
  user_resets : int;
      (** silent-but-disabling faults cleared by a user-requested
          restart (defect class 3) — the campaign watchdog *)
  bios_resets : int;  (** times the NIC wedged and needed out-of-band reset *)
  by_fault_type : (string * int) list;  (** applied faults per type *)
}

type shard_result = {
  outcome : outcome;  (** this shard's share of the campaign *)
  snapshot : Resilix_obs.Metrics.snapshot;  (** the shard machine's metric registry *)
  spans : Resilix_obs.Span.t;  (** the shard machine's recovery spans *)
}

val trials :
  ?faults:int ->
  ?seed:int ->
  ?wedge_prob:float ->
  ?shard_size:int ->
  unit ->
  shard_result Resilix_harness.Trial.t list
(** The campaign as shard trials.  Shard [i] injects its batch into a
    fresh machine seeded [Rng.derive ~seed ~index:i]. *)

val reduce : shard_result list -> outcome
(** Pure fold: sum every shard outcome (fault-type counts merge
    key-wise). *)

val run :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?faults:int ->
  ?seed:int ->
  ?wedge_prob:float ->
  ?shard_size:int ->
  ?obs:(string -> unit) ->
  unit ->
  outcome
(** [Campaign.run ?jobs ?on_progress] over {!trials}, then {!reduce}.
    Default: the paper's 12,500 faults, one every 20 ms of virtual
    time per shard, no hardware wedging (the Bochs-like
    configuration).  Pass [wedge_prob] > 0 for the real-hardware
    variant.  [on_progress] observes per-shard completion (the long
    25-shard default run is no longer silent until the reduce) without
    touching stdout.  [obs] receives campaign-level JSONL: the
    {!Resilix_obs.Metrics.merge_all} union of every shard's registry —
    per-shard gauges (snapshots are tagged with their shard index)
    merge into deterministic min/max/last distributions — and all
    spans concatenated in shard order (label ["sec72"]). *)

val ok : outcome -> bool
(** The campaign's internal integrity check: some faults were
    applied, the crash-class split accounts for every detected crash
    ([panics + exceptions + heartbeats + other = crashes]), and
    recoveries don't exceed detections.  Drives the CLI exit code. *)

val print : string -> outcome -> unit
(** Print the campaign summary under the given label. *)
