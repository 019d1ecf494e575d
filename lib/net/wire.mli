(** Wire formats: Ethernet-like frames carrying an IP-lite header and
    TCP or UDP.  Frames are what NIC models DMA in and out of driver
    memory, so everything here round-trips through real byte buffers;
    decode validates a CRC-32 over the transport header + payload, so
    corruption on the link (or a buggy driver writing garbage) is
    detected and the segment dropped — which TCP then repairs
    (Sec. 6.1). *)

type tcp_segment = {
  src_port : int;
  dst_port : int;
  seq : int;  (** 32-bit sequence number of the first payload byte *)
  ack_no : int;  (** cumulative acknowledgement (valid when [ack]) *)
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  window : int;  (** advertised receive window, bytes *)
  payload : bytes;
}

type udp_datagram = { src_port : int; dst_port : int; payload : bytes }

type ip_payload = Tcp of tcp_segment | Udp of udp_datagram

type packet = { src_ip : int; dst_ip : int; body : ip_payload }

type frame = { dst_mac : int; src_mac : int; packet : packet }

val encode : frame -> bytes
(** Serialize to link bytes. *)

val decode : bytes -> (frame, string) result
(** Parse and CRC-check link bytes.  The error is one of
    {!decode_errors}. *)

val decode_errors : string list
(** Every reason {!decode} gives for rejecting a frame. *)

val max_payload : int
(** Maximum TCP/UDP payload per frame (the MSS), 1460 bytes. *)

val ip : int -> int -> int -> int -> int
(** [ip a b c d] builds a dotted-quad address as an int. *)

