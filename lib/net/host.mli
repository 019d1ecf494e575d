(** The TCP endpoint that INET and the simulated remote peer each run:
    one demultiplexing table, one timer set and the reset for
    segments no connection owns, around the {!Tcp} engine.

    The clock stays with the caller.  [now] is read once per open,
    once per segment handed to a connection, once per timer set, once
    per {!fire} and once per fired timer; [arm] receives the earliest
    pending deadline after every change, or [None] when no timer is
    armed, and the caller calls {!fire} when that deadline passes.
    Sockets, listeners and what a connection's events mean stay with
    the caller too. *)

type t
(** One host's connections. *)

type key = int * int * int
(** Remote IP, remote port, local port. *)

val create : now:(unit -> int) -> arm:(int option -> unit) -> t
(** Empty host; neither function is called before the first open. *)

val open_conn :
  t ->
  key:key ->
  tkey:int ->
  active:bool ->
  Tcp.config ->
  emit:(Wire.tcp_segment -> unit) ->
  notify:(Tcp.event -> unit) ->
  Tcp.t
(** Open a connection (an active one emits its SYN through [emit]
    before this returns) and register it under [key] for segments and
    under [tkey] for its timer.  Timers due at the same instant fire
    in ascending [tkey] order. *)

val forget : t -> key:key -> tkey:int -> Tcp.t -> unit
(** Unregister the connection and disarm its timer; entries that a
    newer connection now holds under [key] or [tkey] stay. *)

val input : t -> remote_ip:int -> Wire.tcp_segment -> bool
(** Hand a segment to the connection it belongs to; [false] when no
    connection owns it. *)

val fire : t -> unit
(** Run every timer whose deadline has passed, then re-arm. *)

val reset_for : Wire.tcp_segment -> Wire.tcp_segment option
(** The RFC 793 reply to a segment no connection owns: [None] for a
    reset, else an RST whose sequence number is the segment's
    acknowledgment number if it carries one, or an RST+ACK of
    everything it occupies (a SYN counts one) otherwise. *)
