(** Fig. 7 — networking throughput under repeated Ethernet-driver
    kills.

    The paper's setup: wget retrieves a 512-MB file over TCP while a
    crash script SIGKILLs the RTL8139 driver every 1..15 seconds; the
    direct-restart policy recovers it each time, TCP masks the losses,
    and the MD5 of the received data matches the original.  Reported:
    throughput per kill interval, versus the uninterrupted transfer.

    The sweep is expressed as hermetic {!Resilix_harness.Trial}s (one
    per kill interval, plus the baseline) folded by a pure reducer, so
    it runs on every core without changing a byte of output. *)

type row = {
  kill_interval_s : int option;  (** None = uninterrupted baseline *)
  bytes : int;
  duration_us : int;
  throughput_mbs : float;
  recoveries : int;  (** completed driver reincarnations *)
  mean_restart_us : int;  (** RS detect -> service back up *)
  overhead_pct : float;  (** throughput loss vs. the baseline *)
  integrity_ok : bool;  (** digest matches the served file *)
}

type trial_result = {
  row : row;  (** [overhead_pct] still 0 — filled in by {!reduce} *)
  obs_lines : string list;  (** the trial's JSONL observability dump *)
}

val recovery_stats : Resilix_system.System.t -> int * int
(** Completed recoveries and their mean duration in us, from the
    machine's closed recovery spans (opened at defect detection,
    closed at reintegration).  Fig. 8 uses the same accounting. *)

val trials :
  ?size:int -> ?intervals:int list -> ?seed:int -> unit -> trial_result Resilix_harness.Trial.t list
(** The sweep as trial specs: the baseline first, then one trial per
    kill interval.  Trial [i] is seeded [Rng.derive ~seed ~index:i],
    so per-trial streams are independent of sweep width and order. *)

val reduce : trial_result list -> row list
(** Pure fold: computes each row's overhead against the baseline
    (the first result). *)

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
    [on_progress] observes per-trial completion on stderr-side
    channels only — output stays byte-identical.  Default: a
    64-MB transfer (scaled from the paper's 512 MB; the per-crash dead
    time is scale-independent, so the overhead shape is preserved),
    kill intervals 1,2,4,8,15 s.  The first row is the uninterrupted
    baseline.  Recovery counts and mean restart time are computed from
    the closed recovery spans ({!Resilix_obs.Span}).  [obs] receives
    the JSONL observability lines of every transfer in trial order
    (labelled ["fig7/baseline"], ["fig7/kill-4s"], ...) — the stream
    is identical for any [jobs]. *)

val ok : row list -> bool
(** Internal integrity check: non-empty and every row's digest
    matched ([integrity_ok]).  Drives the CLI exit code. *)

val print : row list -> unit
(** Print the series next to the paper's anchor numbers. *)
