(** The network server (INET).

    INET owns the TCP/UDP state for the whole system: applications get
    sockets over IPC, and frames flow to/from an Ethernet driver using
    the asynchronous [DL_*] protocol with grants for frame data.  Its
    TCP connections, their timers (one kernel alarm) and the reset for
    a refused SYN live in a {!Host}, the same endpoint the remote
    {!Peer} runs; INET keeps the sockets, listeners and their backlog,
    the grants and the driver hand-off.

    While the driver's circuit breaker is open (a ["degraded.*"]
    data-store record), new TCP connects and UDP sends fail fast with
    [E_degraded] instead of parking until a restart that may never
    come.

    Driver recovery (Sec. 6.1): INET subscribes to ["eth.*"] in the
    data store.  When its driver crashes, in-flight sends fail with
    [E_dead_src_dst] and outgoing frames queue.  When the reincarnation
    server publishes the restarted driver's new endpoint, INET runs
    its reintegration procedure — reconfigure ([Dl_conf], putting the
    device in promiscuous mode), repost the receive buffer, resume the
    transmit queue — and TCP's retransmission machinery resupplies
    whatever died with the old driver.  Applications never notice.

    If the driver violates the protocol (e.g. an impossible receive
    length), INET files a complaint with the reincarnation server —
    defect class 5 of Sec. 5.1. *)

type t
(** Shared handle for introspection. *)

val create :
  local_ip:int ->
  gateway_mac:int ->
  driver_key:string ->
  spans:Resilix_obs.Span.t ->
  metrics:Resilix_obs.Metrics.t ->
  unit ->
  t
(** [driver_key] is the stable name of the Ethernet driver to bind
    (e.g. ["eth.rtl8139"]); [gateway_mac] is where off-link traffic is
    framed to (the peer).  [spans] is the system-wide collector INET
    marks the re-open phase of its driver's recovery spans in; INET's
    counters live in [metrics]. *)

val body : t -> unit -> unit
(** The process body; boot runs this at the well-known INET slot. *)

val driver_generation : t -> int
(** How many times a driver endpoint has been (re)integrated. *)
