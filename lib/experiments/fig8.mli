(** Fig. 8 — disk throughput under repeated SATA-driver kills.

    The paper's setup: dd reads a 1-GB file of random data (piped into
    sha1sum) while a crash script SIGKILLs the SATA driver every 1..15
    seconds.  The file server marks pending I/O, waits for the
    reincarnated driver, and reissues the idempotent block reads; the
    SHA-1 is identical in every run.  Overhead is larger than the
    network case (62% at 1 s vs 25%) because the disk moves data
    faster, so every second of recovery dead time costs more.

    The sweep is expressed as hermetic {!Resilix_harness.Trial}s
    (baseline + one per interval) folded by a pure reducer, so it runs
    on every core without changing a byte of output. *)

type row = {
  kill_interval_s : int option;
  bytes : int;
  duration_us : int;
  throughput_mbs : float;
  recoveries : int;
  reissued_ios : int;  (** pending block ops redone after crashes *)
  mean_restart_us : int;
  overhead_pct : float;
  integrity_ok : bool;  (** checksum equals the uninterrupted run's *)
}

type trial_result = {
  row : row;  (** [overhead_pct]/digest comparison filled by {!reduce} *)
  digest : string;  (** digest of the bytes dd read *)
  obs_lines : string list;  (** the trial's JSONL observability dump *)
}

val trials :
  ?size:int -> ?intervals:int list -> ?seed:int -> unit -> trial_result Resilix_harness.Trial.t list
(** Baseline first, then one trial per kill interval.  All trials
    share [seed]: the on-disk file content derives from the machine
    seed, and the digest comparison needs every run to read identical
    bytes — only the kill schedule varies per trial. *)

val reduce : trial_result list -> row list
(** Pure fold: overhead against the baseline row, and every digest
    compared against the baseline's. *)

val run :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?size:int ->
  ?intervals:int list ->
  ?seed:int ->
  ?obs:(string -> unit) ->
  unit ->
  row list
(** [Campaign.run ?jobs ?on_progress] over {!trials}, then {!reduce}.
    [on_progress] observes per-trial completion without touching the
    output byte-stream.  Default: a
    128-MB file (scaled from 1 GB), kill intervals 1,2,4,8,15 s; first
    row is the uninterrupted baseline.  Recovery latencies come from
    the closed recovery spans; [obs] receives each trial's JSONL lines
    in trial order (labels ["fig8/..."]), identical for any [jobs]. *)

val ok : row list -> bool
(** Internal integrity check: non-empty and every row's checksum
    matched.  Drives the CLI exit code. *)

val print : row list -> unit
(** Print the series next to the paper's anchor numbers. *)
