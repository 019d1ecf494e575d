(** The simulated microkernel.

    Every server, driver and application is an isolated process: a
    private {!Memory.t} address space plus an OCaml fiber that talks to
    the kernel exclusively through {!Sysif} effects.  The kernel
    provides MINIX-style rendezvous IPC with temporally unique
    endpoints, non-blocking notifications, capability grants with
    [safecopy], per-process privileges, I/O-port and IRQ mediation,
    and an IOMMU for device DMA (Sec. 4 of the paper).

    All activity is driven by a {!Resilix_sim.Engine}; each kernel
    operation advances virtual time by a fixed cost ({!default_costs}),
    which is what the performance experiments measure.

    {2 Error conventions}

    Every run-time fallible operation returns a [result] (typically
    [(_, Errno.t) result]): IPC, kernel calls, process management —
    including everything reachable from process code through
    {!Sysif}.  The only raising paths are boot-time wiring errors
    that indicate a mis-built system image rather than a run-time
    condition: {!spawn_wellknown} raises [Invalid_argument] for an
    out-of-range or occupied slot.  Nothing else in this interface
    raises. *)

module Endpoint := Resilix_proto.Endpoint
module Errno := Resilix_proto.Errno
module Status := Resilix_proto.Status
module Signal := Resilix_proto.Signal
module Privilege := Resilix_proto.Privilege

(** Virtual-time cost (microseconds) of each kernel operation. *)
type costs = {
  syscall : int;  (** fixed overhead of any scheduled syscall *)
  ipc : int;  (** rendezvous message delivery / context switch *)
  notify : int;  (** non-blocking notification *)
  copy_base : int;  (** fixed part of safecopy *)
  copy_bytes_per_us : int;  (** safecopy throughput, bytes per microsecond *)
  devio : int;  (** mediated I/O-port access ("a few microseconds", Sec. 4) *)
  spawn : int;  (** process creation + binary load *)
}

val default_costs : costs
(** 1 us syscalls, 2 us IPC, 2 GB/s copies, 3 ms spawn. *)

type t
(** A kernel instance. *)

val create :
  engine:Resilix_sim.Engine.t ->
  trace:Resilix_sim.Trace.t ->
  rng:Resilix_sim.Rng.t ->
  ?metrics:Resilix_obs.Metrics.t ->
  unit ->
  t
(** Create a kernel bound to a simulation engine.  [metrics] is the
    registry the kernel's counters live in (fresh by default); pass a
    shared registry so servers and drivers report into the same
    place. *)

val engine : t -> Resilix_sim.Engine.t
(** The engine driving this kernel. *)

val trace : t -> Resilix_sim.Trace.t
(** The shared trace log. *)

val metrics : t -> Resilix_obs.Metrics.t
(** The metric registry (kernel counters live under ["kernel.*"]). *)

(** {1 Programs and processes} *)

val register_program : t -> string -> (unit -> unit) -> unit
(** [register_program t key main] adds a binary to the program
    registry.  The reincarnation server starts (and after a crash
    restarts) services by program key, which models reloading a fresh
    copy of the driver binary. *)

val spawn_wellknown :
  t ->
  ep:Endpoint.t ->
  name:string ->
  priv:Privilege.t ->
  ?mem_kb:int ->
  (unit -> unit) ->
  unit
(** Boot-time creation of a trusted server at a fixed slot.  Raises
    [Invalid_argument] if the slot is out of range or taken — the one
    raising path in this interface (see the error conventions
    above). *)

val spawn_dynamic :
  t ->
  name:string ->
  program:string ->
  args:string list ->
  priv:Privilege.t ->
  mem_kb:int ->
  (Endpoint.t, Errno.t) result
(** Used by the process manager to create a process from a registered
    program (also available to processes as the [Proc_create] kernel
    call). *)

val kill : t -> Endpoint.t -> Status.exit_status -> (unit, Errno.t) result
(** Terminate a process immediately (stale endpoints fail). *)

val deliver_signal : t -> Endpoint.t -> Signal.t -> (unit, Errno.t) result
(** Post a signal notification (e.g. SIGTERM) without killing. *)

(** {1 Hardware-facing interface (wired by the system builder)} *)

val set_bus : t -> read:(int -> int) -> write:(int -> int -> unit) -> unit
(** Install the I/O-port bus: [read port] and [write port value] serve
    every access that passes a process's {!Sysif.ports} checks.  Either
    may raise {!Sysif.Port_refused} to refuse an access, which is
    charged and counted like a completed one; until a bus is installed
    every access is refused so.  Any other exception from them leaves
    the kernel: it ends the accessing fiber without an exit and
    propagates out of the engine loop that ran the access. *)

val raise_irq : t -> int -> unit
(** Called by device models: delivers an [N_irq] notification to the
    process registered on that line (dropped if none). *)

val dma :
  t ->
  handle:int ->
  off:int ->
  op:[ `Read of int | `Fill of int * (bytes -> int -> int -> unit) ] ->
  (bytes, Errno.t) result
(** Device DMA through the IOMMU: [handle] was produced by the
    [Iommu_map] kernel call over a memory grant.  [`Read len] returns
    the bytes.  [`Fill (len, f)] is the one device-to-memory direction:
    the device produces [len] bytes in place, [f] being called as in
    {!Memory.fill} on the owner's memory once every check has passed,
    and the result is an empty buffer.  A producer must write only the
    [len] bytes it is given; the grant check covers no more.  Fails
    with [E_no_perm] for stale mappings (e.g. after the owning driver
    died) and [E_range] for out-of-grant accesses; [f] does not run
    then. *)

(** {1 Introspection (tests, fault injector, experiment harness)} *)

val alive : t -> Endpoint.t -> bool
(** Whether the endpoint names a live process (generation included). *)

val find_by_name : t -> string -> Endpoint.t option
(** Endpoint of the live process with the given name, if any. *)

val proc_memory : t -> Endpoint.t -> Memory.t option
(** Address space of a live process — used by the software fault
    injector to mutate a running driver's loaded code image. *)

