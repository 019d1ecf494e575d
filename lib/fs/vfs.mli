(** The virtual file system server.

    Applications talk to VFS; VFS routes regular-file I/O to the MFS
    file server and character-device I/O ([/dev/...] paths) to the
    corresponding character driver.

    Failure semantics follow Fig. 3 of the paper: block-device-backed
    file I/O is fully masked (MFS blocks and reissues), while a
    character driver crash surfaces as [E_io] to the application —
    "errors are always pushed up, but need to be reported to the user
    only if the application cannot recover" (Sec. 6.3).  VFS does
    refresh its endpoint cache from the data store, so a
    recovery-aware application's retry reaches the reincarnated
    driver. *)

type t
(** Shared handle for introspection. *)

val create : ?chardevs:(string * (string * int)) list -> metrics:Resilix_obs.Metrics.t -> unit -> t
(** [chardevs] maps device paths to [(stable service name, minor)],
    e.g. [("/dev/audio", ("chr.audio", 0))]; VFS's counters live in
    [metrics]. *)

val body : t -> unit -> unit
(** The process body; boot runs this at the well-known VFS slot. *)

val memory_kb : int
(** Address-space size VFS needs. *)


val degraded : t -> string list
(** The driver keys VFS currently treats as degraded (sorted).  VFS
    subscribes to the ["degraded.*"] records the reincarnation server
    publishes when a circuit breaker opens; while a driver is marked,
    character-device operations on it fail immediately with
    [E_degraded] instead of blocking on a parked driver. *)
