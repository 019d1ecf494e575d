(** The one place that boots a machine for a workload.

    The paper's Sec. 7 experiments ({!Resilix_experiments}) and the
    DST scenarios ({!Scenario}) run the same machines: wget over the
    RTL8139 (Fig. 7), dd over the SATA driver (Fig. 8) and UDP traffic
    into the DP8390 (Sec. 7.2).  Each rig boots a fresh machine with an
    8-MB disk (dd's is the file plus 8 MB), starts one driver under
    the given RS policy and spawns the workload; the caller drives the
    engine and reads the result.  Fault sources live here too: a
    single kill, and the Sec. 7.2 injection loop with its stall
    watchdog. *)

module System := Resilix_system.System

val machine :
  ?engine_policy:Resilix_sim.Engine.policy ->
  ?programs:(string * (unit -> unit)) list ->
  ?policies:(string * Resilix_core.Policy.t) list ->
  seed:int -> Resilix_proto.Spec.t -> System.t
(** Boot under [engine_policy] (default FIFO) with [policies] added to
    the default registry, register [programs] (name, body), and start
    the one service [spec]. *)

val kill_after : System.t -> after:int -> string -> unit
(** SIGKILL the named service once, [after] us from now. *)

val wget :
  ?engine_policy:Resilix_sim.Engine.policy ->
  seed:int -> size:int -> unit -> System.t * Resilix_apps.Wget.result
(** The RTL8139 under the direct policy and wget fetching the peer's
    [size]-byte [file.bin] (content seed 77). *)

val wget_intact : size:int -> Resilix_apps.Wget.result -> bool
(** wget succeeded and its digest is [file.bin]'s. *)

val dd : seed:int -> size:int -> System.t * Resilix_apps.Dd.result
(** The SATA driver under the direct policy and dd reading the
    [size]-byte [/big.bin]. *)

val udp_sink :
  ?engine_policy:Resilix_sim.Engine.policy ->
  ?policies:(string * Resilix_core.Policy.t) list ->
  ?wedge_prob:float ->
  ?ack_every:int ->
  seed:int -> policy:string -> unit -> System.t * int ref
(** The DP8390 bound to INET under RS policy [policy] (heartbeat every
    200 ms, NIC wedge probability [wedge_prob], default 0), a
    {!Resilix_apps.Udp_sink} on port 9 and the peer's stream of 700-B
    datagrams every 10 ms.  The reference counts received datagrams. *)

val stall_watchdog :
  System.t -> received:int ref -> bound:int -> pause:bool -> unit -> bool
(** A check for silent-but-disabling DP8390 faults (defect class 3):
    when no datagram has arrived for more than [bound] us, kill the
    driver as a user would, and answer [true].  With [pause], the
    clock stands still while RS does not report the driver [`Up]. *)

type injection = {
  started_at : int;  (** virtual time after the 1-s settle *)
  injected : int;  (** faults applied *)
  user_resets : int;  (** restarts by the stall watchdog *)
  bios_resets : int;  (** out-of-band resets of a wedged NIC *)
  by_fault_type : (string * int) list;  (** faults applied per type, sorted *)
}

val inject_loop : System.t -> received:int ref -> faults:int -> pause:bool -> injection
(** The Sec. 7.2 loop on a {!udp_sink} machine: settle 1 s, then every
    20 ms reset a wedged NIC and inject one random binary fault into
    the live driver, under a 1.5-s {!stall_watchdog}, until [faults]
    are applied; then 5 s more for the last recovery. *)
