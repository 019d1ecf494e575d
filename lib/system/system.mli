(** Boot: assembles a complete simulated machine.

    One call to {!boot} builds the microkernel, the I/O bus with every
    device model ({!Hwmap}), two lossless 100 Mbit links (12 bytes/us,
    200 us one way) with remote peers, a formatted disk, and the
    trusted server set (PM, DS, RS, VFS, MFS, INET) — i.e. the
    architecture of the paper's Fig. 1.  Drivers are
    then started through the service utility like on a real system,
    which is what makes them guarded, restartable components. *)

module Spec := Resilix_proto.Spec
module Endpoint := Resilix_proto.Endpoint
module Errno := Resilix_proto.Errno

type opts = {
  seed : int;  (** master RNG seed; everything derives from it *)
  engine_policy : Resilix_sim.Engine.policy;
      (** same-instant event ordering (default FIFO; the DST layer
          boots machines under seeded/scripted tie-breaking) *)
  inet_driver : string;  (** which Ethernet driver INET binds, e.g. ["eth.rtl8139"] *)
  disk_mb : int;  (** SATA disk size *)
  fs_files : (string * int) list;  (** contiguous files created by mkfs: (name, bytes) *)
  peer_files : (string * (int * int)) list;  (** files served by the RTL-side peer *)
  nic_wedge_prob : float;  (** probability that garbage programming wedges a NIC *)
  policies : (string * Resilix_core.Policy.t) list;  (** policy-script registry for RS *)
}

val default_opts : opts
(** Seed 42, FIFO tie-breaking, 64 MB disk, no NIC wedging,
    RTL8139 bound, policies [direct], [generic] and [breaker]
    predefined. *)

type t = {
  engine : Resilix_sim.Engine.t;
  kernel : Resilix_kernel.Kernel.t;
  trace : Resilix_sim.Trace.t;
  rng : Resilix_sim.Rng.t;
  bus : Resilix_hw.Bus.t;
  store : Resilix_hw.Blockstore.t;
  nic_rtl : Resilix_hw.Nic.t;  (** the RTL8139 *)
  nic_dp : Resilix_hw.Nic.t;  (** the DP8390 *)
  disk : Resilix_hw.Disk.t;
  floppy : Resilix_hw.Disk.t;
  audio : Resilix_hw.Audio_dev.t;
  printer : Resilix_hw.Printer_dev.t;
  cd : Resilix_hw.Cd_dev.t;
  rtl_link : Resilix_hw.Link.t;
  dp_link : Resilix_hw.Link.t;
  rtl_peer : Resilix_net.Peer.t;
  dp_peer : Resilix_net.Peer.t;
  pm : Resilix_pm.Proc_manager.t;
  ds : Resilix_datastore.Data_store.t;
  rs : Resilix_core.Reincarnation.t;
  vfs : Resilix_fs.Vfs.t;
  mfs : Resilix_fs.Mfs.t;
  inet : Resilix_net.Inet.t;
  metrics : Resilix_obs.Metrics.t;
      (** system-wide metric registry (kernel counters, server/driver counters) *)
  spans : Resilix_obs.Span.t;  (** system-wide recovery span collector *)
  mutable app_counter : int;
      (** per-boot uniquifier for {!spawn_app} program keys (kept
          boot-local so trials stay hermetic) *)
}

val boot : ?opts:opts -> unit -> t
(** Build the machine.  No virtual time has elapsed yet; run the
    engine to let the servers initialize. *)

val obs_lines : ?label:string -> t -> string list
(** JSONL observability dump of the machine so far: one line per
    metric (counters, gauges, histograms), one per recovery span, and
    one MTTR report line per recovered component — see
    {!Resilix_obs.Export}. *)

(** {1 Canned service specs}

    Each follows the paper's service-utility arguments: stable name,
    binary, least-authority privileges (exactly its own ports and IRQ),
    heartbeat period, policy.  The NICs and the SATA disk are pinged
    every 500 ms; the policy is [direct] unless given, [generic] for
    the floppy; the RAM disk holds 512 KB. *)

val spec_rtl8139 : ?policy:string -> unit -> Spec.t
val spec_dp8390 : ?policy:string -> ?heartbeat_period:int -> unit -> Spec.t
val spec_sata : ?policy:string -> unit -> Spec.t
val spec_floppy : unit -> Spec.t
val spec_ramdisk : unit -> Spec.t
val spec_audio : unit -> Spec.t
val spec_printer : unit -> Spec.t
val spec_cd : unit -> Spec.t

(** {1 Running workloads} *)

val spawn_app :
  t ->
  name:string ->
  ?priv:Resilix_proto.Privilege.t ->
  (unit -> unit) ->
  Endpoint.t
(** Start an application process running the given body. *)

val start_services : t -> Spec.t list -> unit
(** Start drivers through the service utility (spawns a setup app that
    issues [service up] for each spec and waits until it is up). *)

val run : ?until:int -> t -> unit
(** Advance the simulation. *)

val run_until : t -> ?timeout:int -> (unit -> bool) -> bool
(** Step the engine until the predicate holds; [false] on timeout
    (default 60 simulated seconds) or event exhaustion. *)

(** {1 Failure tooling} *)

val start_crash_script : t -> target:string -> interval:int -> ?count:int -> unit -> unit
(** The Sec. 7.1 crash simulation: an app that periodically looks up
    the driver's pid and SIGKILLs it ([count] times; default
    unbounded). *)

val kill_service_once : t -> target:string -> (unit, Errno.t) result
(** Immediately SIGKILL the named service's current process. *)

val inject_fault : t -> target:string -> Resilix_vm.Fault.fault_type -> string option
(** Mutate the running driver's loaded code image (Sec. 7.2) and
    describe the mutation.  [None] when [target] is not one of the
    fault-injection targets ([eth.rtl8139], [eth.dp8390], [blk.sata]),
    has no live process, or offers no instruction the fault type
    applies to. *)
