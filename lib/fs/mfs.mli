(** The MFS file server.

    Serves the RXFS on-disk format ({!Layout}) over a block driver,
    through a {!Cache} that masks driver failures: if the disk driver
    crashes mid-request, the pending block I/O is reissued against the
    reincarnated driver and applications stay blocked-but-safe until
    it completes (Sec. 6.2, Fig. 5).

    MFS subscribes to ["blk.*"] in the data store, which is how it
    learns the new endpoint of a restarted disk driver. *)

type t
(** Shared handle for introspection. *)

val create :
  driver_key:string ->
  spans:Resilix_obs.Span.t ->
  metrics:Resilix_obs.Metrics.t ->
  unit ->
  t
(** [driver_key] is the stable service name of the block driver
    (e.g. ["blk.sata"]), whose minor device 0 MFS mounts through a
    192-block cache; [spans] is the system-wide collector MFS marks
    its driver's re-open phase in, and [metrics] holds MFS's outage
    counter. *)

val body : t -> unit -> unit
(** The process body; boot runs this at the well-known MFS slot. *)

val memory_kb : int
(** Address-space size MFS needs (dominated by the block cache). *)

val reissued_ios : t -> int
(** Block operations reissued after driver crashes ("redo I/O" in
    Fig. 5) — the harness reports this per experiment. *)
