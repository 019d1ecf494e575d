(** A TCP engine: connection state machine with sequence numbers,
    cumulative ACKs, adaptive retransmission timeout with exponential
    backoff, fast retransmit, slow start / congestion avoidance, and
    flow control.

    Reliability here is the crux of the paper's network-driver
    recovery scheme (Sec. 6.1): while a crashed Ethernet driver is
    being reincarnated, segments are silently lost; once the fresh
    driver is reintegrated, the retransmission machinery reinserts the
    missing bytes in the stream and applications never notice.

    The engine is transport-agnostic: it emits segments and asks for
    timers through callbacks; the network server and the simulated
    remote peer both embed it. *)

type config = {
  local_port : int;
  remote_port : int;
  rx_window : int;  (** receive buffer size, bytes *)
  tx_buffer : int;  (** send buffer size, bytes *)
  isn : int;  (** initial sequence number (32-bit) *)
}

val default_config : local_port:int -> remote_port:int -> isn:int -> config
(** 256 KB windows.  Every connection sends segments of at most 1460
    bytes and starts its retransmission timeout at 200 ms, backing off
    to at most 8 s. *)

(** Edge-triggered events surfaced to the embedder. *)
type event =
  | Ev_established  (** three-way handshake completed *)
  | Ev_rx_ready  (** new in-order data is readable *)
  | Ev_tx_space  (** send-buffer space was freed by an ACK *)
  | Ev_peer_closed  (** FIN received and all peer data delivered *)
  | Ev_reset  (** connection reset *)
  | Ev_closed  (** both directions finished *)

type callbacks = {
  emit : Wire.tcp_segment -> unit;  (** transmit one segment *)
  set_timer : int option -> unit;
      (** arm the connection's (single) timer for [Some delay_us], or
          cancel it with [None] *)
  notify : event -> unit;
}

type t
(** A connection. *)

val create_active : config -> now:int -> callbacks -> t
(** Open actively: emits the SYN immediately. *)

val create_passive : config -> now:int -> callbacks -> t
(** Passive open: waits for a SYN (the embedder demultiplexes). *)

val handle_segment : t -> now:int -> Wire.tcp_segment -> unit
(** Feed an incoming segment (already CRC-validated). *)

val handle_timer : t -> now:int -> unit
(** The timer armed via [set_timer] fired. *)

val send : t -> now:int -> bytes -> off:int -> len:int -> int
(** Queue application data; returns how many bytes were accepted
    (bounded by free send-buffer space; 0 when full). *)

val recv : t -> max:int -> bytes
(** Pull up to [max] bytes of in-order received data (none when
    [max <= 0]). *)

val close : t -> now:int -> unit
(** No more application data; FIN once the send buffer drains. *)

val abort : t -> unit
(** Drop the connection, emitting RST. *)

val rx_available : t -> int
(** Bytes ready for {!recv}. *)

val tx_space : t -> int
(** Free send-buffer bytes. *)

val is_established : t -> bool
(** Handshake completed and not yet finished. *)

val peer_closed : t -> bool
(** Peer sent FIN and everything before it was delivered. *)

val is_closed : t -> bool
(** Fully terminated (closed both ways, or reset). *)

val retransmissions : t -> int
(** Total segments retransmitted (timeout + fast retransmit) — used
    by the experiment harness to report recovery behaviour. *)
