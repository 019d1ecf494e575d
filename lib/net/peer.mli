(** The simulated remote host ("the Internet side" of the link).

    It terminates TCP connections in its own {!Host}, the same TCP
    endpoint INET runs, on one engine event for every connection's
    timer, and answers a segment no connection owns with the host's
    reset.  It serves deterministic files over a trivial
    [GET <name>\n] protocol on port 80 (the wget experiment's server),
    echoes UDP on port 7, and can blast a periodic UDP stream at the
    machine under test (receive-side traffic for the fault-injection
    campaign).

    The peer attaches directly to the link — it stands in for remote
    infrastructure, not for a component of the system under test. *)

type t
(** A peer instance. *)

val create :
  engine:Resilix_sim.Engine.t ->
  rng:Resilix_sim.Rng.t ->
  link:Resilix_hw.Link.t ->
  side:Resilix_hw.Link.side ->
  ip:int ->
  mac:int ->
  ?files:(string * (int * int)) list ->
  unit ->
  t
(** [files] maps file names to [(size_bytes, content_seed)]. *)

val file_md5 : t -> string -> string option
(** MD5 digest of a registered file. *)

(** {1 Client flows}

    Outbound TCP connections from the peer into the machine under
    test.  Every flow shares the peer's single engine event for timers
    (one pending event for any number of connections) and its
    ephemeral ports are allocated
    sequentially, so thousands of concurrent flows stay deterministic
    and collision-free — the substrate the load generator
    ({!Resilix_load.Loadgen}) drives. *)

type flow
(** One outbound connection, demuxed and timer-served by the peer. *)

val open_flow :
  t ->
  dst_ip:int ->
  dst_mac:int ->
  dst_port:int ->
  notify:(flow -> Tcp.event -> unit) ->
  unit ->
  flow
(** Actively open a connection (the SYN is emitted immediately).
    [notify] receives every TCP event; drive the stream with
    {!flow_tcp} + [Tcp.send]/[Tcp.recv].  Each flow has a 64 KB
    receive window and a 16 KB send buffer — small enough that
    thousands of flows are cheap (the server side, not the client,
    needs deep buffers). *)

val flow_tcp : flow -> Tcp.t
(** The flow's TCP engine. *)

val flow_close : t -> flow -> unit
(** Graceful close (FIN once the send buffer drains). *)

val flow_abort : flow -> unit
(** Drop the flow immediately, emitting RST. *)

type client_result = {
  mutable connected : bool;
  mutable response : string;  (** everything the server sent back *)
  mutable closed : bool;
}

val start_tcp_client :
  t -> dst_ip:int -> dst_mac:int -> dst_port:int -> payload:string -> client_result
(** Open a TCP connection *into* the machine under test (exercising
    the network server's listen/accept path), send [payload], then
    collect whatever comes back until the peer closes. *)

val start_udp_stream :
  t ->
  dst_ip:int ->
  dst_mac:int ->
  dst_port:int ->
  src_port:int ->
  payload_len:int ->
  interval:int ->
  unit ->
  unit
(** Begin sending one datagram every [interval] microseconds; the
    returned thunk stops the stream. *)
