(** The system interface: how process code talks to the kernel.

    Every simulated process (server, driver, application) is an OCaml
    function run as an effect-handler fiber; performing {!Sys}
    suspends it until the kernel completes the operation.  Process
    code normally uses the {!Api} wrappers, which read like the MINIX
    system library: [send]/[receive]/[sendrec] rendezvous IPC,
    non-blocking [notify], and the privileged kernel calls (safecopy
    over grants, IRQ registration, IOMMU mapping, process
    management); mediated port I/O goes through a {!ports} handle.

    This module has no kernel dependencies: servers, drivers and
    applications depend only on [Sysif] + the protocol types. *)

module Endpoint := Resilix_proto.Endpoint
module Errno := Resilix_proto.Errno
module Message := Resilix_proto.Message
module Status := Resilix_proto.Status
module Signal := Resilix_proto.Signal
module Privilege := Resilix_proto.Privilege
module Event := Resilix_obs.Event
module Metrics := Resilix_obs.Metrics

(** What {!Api.receive} yields: a rendezvous message or a pending
    notification. *)
type rx =
  | Rx_msg of { src : Endpoint.t; body : Message.t }
  | Rx_notify of { src : Endpoint.t; kind : Message.notify_kind }

(** Receive filter: anyone, or one specific endpoint. *)
type source = Any | From of Endpoint.t

(** Access rights carried by a memory grant. *)
type grant_access = Read_only | Write_only | Read_write

(** A process's I/O ports ({!Api.ports}): [port_in port] reads a port
    and [port_out port value] writes one.  An access runs in the
    calling fiber, not as a {!Sys} effect: the kernel checks the
    ["devio"] kernel call and the port range against the process's
    privileges as they are at that access, performs the bus access,
    and charges its cost in virtual time (2 us; 1 us when the
    privileges refuse it, while a refusal by the bus is charged and
    counted like a completed access, see [Kernel.set_bus]), returning
    in place when nothing else is due before then and
    blocking through [Yield] otherwise.  A refused access raises
    {!Port_refused} after that charge, and a kill pending by then
    unwinds the process at the access.  An exception raised by the
    device model is not the process's: it ends the fiber without an
    exit and leaves the kernel to whoever drives the engine, as a
    failure in kernel context would.  The functions must only be
    called from the process that asked for them. *)
type ports = { port_in : int -> int; port_out : int -> int -> unit }

(** The kernel operations, indexed by their result type.  See {!Api}
    for per-operation documentation. *)
type 'a syscall =
  | Send : Endpoint.t * Message.t -> (unit, Errno.t) result syscall
  | Asend : Endpoint.t * Message.t -> (unit, Errno.t) result syscall
  | Receive : source -> (rx, Errno.t) result syscall
  | Sendrec : Endpoint.t * Message.t -> (rx, Errno.t) result syscall
  | Notify : Endpoint.t * Message.notify_kind -> (unit, Errno.t) result syscall
  | Sleep : int -> unit syscall
  | Yield : int -> unit syscall
  | Now : int syscall
  | Self : Endpoint.t syscall
  | My_memory : Memory.t syscall
  | My_ports : ports syscall
  | My_args : string list syscall
  | My_name : string syscall
  | Random : int -> int syscall
  | Exit : Status.exit_status -> unit syscall
  | Obs_emit : Event.level * string * Event.payload -> unit syscall
  | Metric_add : string * int -> unit syscall
  | Metric_counter : string -> Metrics.counter syscall
  | Metric_gauge : string -> Metrics.gauge syscall
  | Safecopy : {
      dir : [ `Read | `Write ];
      owner : Endpoint.t;
      grant : int;
      grant_off : int;
      local_addr : int;
      len : int;
    }
      -> (unit, Errno.t) result syscall
  | Grant_create : {
      for_ : Endpoint.t;
      base : int;
      len : int;
      access : grant_access;
    }
      -> (int, Errno.t) result syscall
  | Grant_revoke : int -> (unit, Errno.t) result syscall
  | Irq_register : int -> (unit, Errno.t) result syscall
  | Alarm : int -> (unit, Errno.t) result syscall
  | Iommu_map : int -> (int, Errno.t) result syscall
  | Iommu_unmap : int -> (unit, Errno.t) result syscall
  | Proc_create : {
      name : string;
      program : string;
      args : string list;
      priv : Privilege.t;
      mem_kb : int;
    }
      -> (Endpoint.t, Errno.t) result syscall
  | Proc_kill : Endpoint.t * Signal.t -> (unit, Errno.t) result syscall
  | Reap_exit : (Endpoint.t * string * Status.exit_status) option syscall
  | Privctl : Endpoint.t * Privilege.t -> (unit, Errno.t) result syscall

type _ Effect.t += Sys : 'a syscall -> 'a Effect.t

exception Killed_exn of Status.exit_status
(** Raised inside a fiber to unwind it when the kernel kills the
    process; the kernel's fiber wrapper translates it back into the
    carried exit status.  Process code must never catch it. *)

exception Panic_exn of string
(** Raised by {!Api.panic}; the kernel records a [Panicked] exit. *)

exception Port_refused
(** Raised by a {!ports} access the process's privileges do not allow,
    or that the bus refused. *)

val kcall_mask : Privilege.allow -> int
(** A [kcalls] whitelist as a bitmask with one bit per kernel-call
    name (["safecopy"], ["devio"], ...): [All] sets every bit; names
    that are not kernel calls grant nothing.  The kernel keeps one per
    process and recomputes it on [Privctl]. *)

val kcall_allowed : int -> 'a syscall -> bool
(** [kcall_allowed (kcall_mask kcalls) op] is one bit test, equal to
    [Privilege.allows kcalls name] where [name] is the name [op] is
    checked under; operations that are not kernel calls are always
    allowed (IPC is checked separately, per destination). *)

val devio_allowed : int -> bool
(** [devio_allowed (kcall_mask kcalls)] is [Privilege.allows kcalls
    "devio"]: whether {!ports} accesses pass the kernel-call gate. *)

(** The process-side system library. *)
module Api : sig
  val send : Endpoint.t -> Message.t -> (unit, Errno.t) result
  (** Rendezvous send: blocks until the destination receives (or
      dies — [E_dead_src_dst]). *)

  val asend : Endpoint.t -> Message.t -> (unit, Errno.t) result
  (** Asynchronous send: queues in the kernel, never blocks (used by
      network drivers for completion notifications). *)

  val receive : source -> (rx, Errno.t) result
  (** Block until a message or notification matching the filter is
      available.  Pending notifications are delivered first. *)

  val sendrec : Endpoint.t -> Message.t -> (rx, Errno.t) result
  (** Send, then wait for the reply from the same endpoint.  The
      reply phase is protected against interception by notifications
      and async messages (MINIX's MF_REPLY_PEND).  Fails with
      [E_dead_src_dst] if the peer dies in either phase — the signal
      servers key their driver-recovery schemes on. *)

  val notify : Endpoint.t -> Message.notify_kind -> (unit, Errno.t) result
  (** Non-blocking notification; pending kinds are deduplicated. *)

  val sleep : int -> unit
  (** Block for a number of virtual microseconds. *)

  val yield : ?cost:int -> unit -> unit
  (** Consume simulated CPU time (the driver VM calls this as fuel). *)

  val now : unit -> int
  (** Current virtual time. *)

  val self : unit -> Endpoint.t
  (** This process's (temporally unique) endpoint. *)

  val memory : unit -> Memory.t
  (** This process's address space. *)

  val ports : unit -> ports
  (** This process's I/O-port handle (see {!ports}); ask once and keep
      it, each access is then a plain call. *)

  val args : unit -> string list
  (** The argv the service spec passed. *)

  val name : unit -> string
  (** This process's name. *)

  val random : int -> int
  (** Deterministic pseudo-random integer in [\[0, n)]. *)

  val exit : Status.exit_status -> 'a
  (** Terminate this process. *)

  val panic : string -> 'a
  (** Terminate with a panic status — what a driver does when it
      detects an internal inconsistency (defect class 1). *)

  val emit : ?level:Event.level -> string -> Event.payload -> unit
  (** Emit a typed observability event into the system trace under a
      subsystem tag ([level] defaults to [Info]). *)

  val trace : string -> ('a, Format.formatter, unit, unit) format4 -> 'a
  (** Emit a free-form [Log] line into the system trace under a
      subsystem tag. *)

  val metric_add : string -> int -> unit
  (** Bump the named counter in the system-wide metric registry. *)

  val metric_incr : string -> unit
  (** [metric_add name 1]. *)

  val metric_counter : string -> Metrics.counter
  (** Resolve the named counter to a direct handle, creating it on
      first use.  Resolve once at startup and bump the handle with
      {!Resilix_obs.Metrics.incr}/[add] on hot paths — same registry
      entry as {!metric_add}, without the per-event name lookup. *)

  val metric_gauge : string -> Metrics.gauge
  (** Resolve the named gauge to a direct handle (see
      {!metric_counter}). *)

  val safecopy_from :
    owner:Endpoint.t -> grant:int -> grant_off:int -> local_addr:int -> len:int ->
    (unit, Errno.t) result
  (** Copy from a granted region of [owner]'s memory into ours; the
      kernel checks that the grant exists, names us as grantee,
      permits reading, and covers the range. *)

  val safecopy_to :
    owner:Endpoint.t -> grant:int -> grant_off:int -> local_addr:int -> len:int ->
    (unit, Errno.t) result
  (** Copy from our memory into a granted region of [owner]'s. *)

  val grant_create :
    for_:Endpoint.t -> base:int -> len:int -> access:grant_access -> (int, Errno.t) result
  (** Create a memory capability over our own address space for one
      specific grantee; returns the grant id to ship in a message. *)

  val grant_revoke : int -> (unit, Errno.t) result
  (** Destroy a grant. *)

  val irq_register : int -> (unit, Errno.t) result
  (** Claim an IRQ line (privilege-checked); interrupts arrive as
      [N_irq] notifications from the hardware pseudo-endpoint. *)

  val alarm : int -> (unit, Errno.t) result
  (** Arm (or with 0, cancel) this process's single kernel alarm;
      expiry arrives as an [N_alarm] notification. *)

  val iommu_map : int -> (int, Errno.t) result
  (** Expose a grant (made out to the hardware pseudo-endpoint) to
      device DMA; returns the DMA handle the driver programs into the
      device.  Mappings die with the process — a crashed driver's
      device cannot scribble on its successor. *)

  val iommu_unmap : int -> (unit, Errno.t) result
  (** Tear down a DMA mapping. *)

  val call :
    Endpoint.t -> Message.t -> (Message.t -> ('a, Errno.t) result option) -> ('a, Errno.t) result
  (** [call dst msg reply]: {!sendrec}, then [reply] picks the
      expected reply's result ([None] for any other message).  A reply
      [reply] rejects, or a notification, is [E_io]; IPC errors
      ([E_dead_src_dst], ...) pass through unchanged.  Every
      request/reply stub goes through here; raw {!sendrec} is left to
      callers whose error branch is a recovery step. *)

  val with_grant :
    for_:Endpoint.t -> base:int -> len:int -> access:grant_access ->
    (int -> ('a, Errno.t) result) -> ('a, Errno.t) result
  (** Create a grant, run [f] on its id, revoke it, return [f]'s
      result (the grant is revoked whatever [f] returns). *)

  val ds_publish : string -> Message.ds_value -> (unit, Errno.t) result
  (** Publish a key in the data store; subscribers get [N_ds_update]. *)

  val ds_delete : string -> (unit, Errno.t) result

  val ds_subscribe : string -> (unit, Errno.t) result
  (** Subscribe to keys matching a pattern (["eth.*"]). *)

  val ds_retrieve_endpoint : string -> Endpoint.t option
  (** The endpoint published under a key; [None] if the key is
      absent, holds another kind of value, or the store cannot be
      reached. *)

  val ds_check : (string -> Message.ds_value -> unit) -> unit
  (** Drain this process's pending data-store updates: [f key value]
      for each, in publication order, until none is left (or the store
      cannot be reached). *)

  val proc_create :
    name:string -> program:string -> args:string list -> priv:Privilege.t -> mem_kb:int ->
    (Endpoint.t, Errno.t) result
  (** Create a process from the binary registry (process manager
      only). *)

  val proc_kill : Endpoint.t -> Signal.t -> (unit, Errno.t) result
  (** Kill ([SIGKILL]/[SIGSEGV]/[SIGILL]) or signal ([SIGTERM]) a
      process (process manager only). *)

  val reap_exit : unit -> (Endpoint.t * string * Status.exit_status) option
  (** Collect one queued exit record (process manager only). *)

  val privctl : Endpoint.t -> Privilege.t -> (unit, Errno.t) result
  (** Replace a process's privileges (reincarnation server only). *)
end
