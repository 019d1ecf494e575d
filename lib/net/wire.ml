module Crc32 = Resilix_checksum.Crc32

type tcp_segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_no : int;
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
  window : int;
  payload : bytes;
}

type udp_datagram = { src_port : int; dst_port : int; payload : bytes }
type ip_payload = Tcp of tcp_segment | Udp of udp_datagram
type packet = { src_ip : int; dst_ip : int; body : ip_payload }
type frame = { dst_mac : int; src_mac : int; packet : packet }

let max_payload = 1460

let ip a b c d = (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

(* --- low-level byte helpers --- *)

let set_u16 b i v = Bytes.set_uint16_be b i (v land 0xFFFF)
let set_u32 b i v = Bytes.set_int32_be b i (Int32.of_int v)

let set_u48 b i v =
  set_u16 b i (v lsr 32);
  set_u32 b (i + 2) v

let get_u16 b i = Bytes.get_uint16_be b i
let get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFF_FFFF
let get_u48 b i = (get_u16 b i lsl 32) lor get_u32 b (i + 2)

let flags_byte seg =
  (if seg.syn then 1 else 0)
  lor (if seg.ack then 2 else 0)
  lor (if seg.fin then 4 else 0)
  lor if seg.rst then 8 else 0

let proto_tcp = 6
let proto_udp = 17

(* Layout:
   0  dst_mac (6)
   6  src_mac (6)
   12 ethertype (2) = 0x0800
   14 src_ip (4)
   18 dst_ip (4)
   22 proto (1)
   TCP (proto 6), from 23:
     src_port(2) dst_port(2) seq(4) ack(4) flags(1) window(4) len(2) crc(4) payload
   UDP (proto 17), from 23:
     src_port(2) dst_port(2) len(2) crc(4) payload
   The CRC covers the transport header (from 23 up to the CRC field)
   and the payload. *)

let transport_off = 23
let tcp_hdr_len = 19
let udp_hdr_len = 6

(* CRC of the transport header at [transport_off] and the payload that
   follows the CRC field, computed in place in the frame. *)
let frame_crc b ~hdr_len ~len =
  let c = Crc32.update Crc32.start b ~off:transport_off ~len:hdr_len in
  Crc32.finish (Crc32.update c b ~off:(transport_off + hdr_len + 4) ~len)

let encode frame =
  let proto, hdr_len, payload =
    match frame.packet.body with
    | Tcp seg -> (proto_tcp, tcp_hdr_len, seg.payload)
    | Udp dgram -> (proto_udp, udp_hdr_len, dgram.payload)
  in
  let len = Bytes.length payload in
  let b = Bytes.create (transport_off + hdr_len + 4 + len) in
  set_u48 b 0 frame.dst_mac;
  set_u48 b 6 frame.src_mac;
  set_u16 b 12 0x0800;
  set_u32 b 14 frame.packet.src_ip;
  set_u32 b 18 frame.packet.dst_ip;
  Bytes.set_uint8 b 22 proto;
  (match frame.packet.body with
  | Tcp seg ->
      set_u16 b 23 seg.src_port;
      set_u16 b 25 seg.dst_port;
      set_u32 b 27 seg.seq;
      set_u32 b 31 seg.ack_no;
      Bytes.set_uint8 b 35 (flags_byte seg);
      set_u32 b 36 seg.window;
      set_u16 b 40 len
  | Udp dgram ->
      set_u16 b 23 dgram.src_port;
      set_u16 b 25 dgram.dst_port;
      set_u16 b 27 len);
  Bytes.blit payload 0 b (transport_off + hdr_len + 4) len;
  set_u32 b (transport_off + hdr_len) (frame_crc b ~hdr_len ~len);
  b

(* The payload length and CRC fields of a transport header of
   [hdr_len] bytes, and the checked payload; [Error] on truncation or
   a checksum mismatch. *)
let checked_payload b ~name ~hdr_len =
  if Bytes.length b < transport_off + hdr_len + 4 then Error (name ^ " header truncated")
  else begin
    let len = get_u16 b (transport_off + hdr_len - 2) in
    let payload_off = transport_off + hdr_len + 4 in
    if Bytes.length b < payload_off + len then Error (name ^ " payload truncated")
    else if frame_crc b ~hdr_len ~len <> get_u32 b (transport_off + hdr_len) then
      Error (name ^ " checksum mismatch")
    else Ok (Bytes.sub b payload_off len)
  end

let decode_errors =
  let transport name =
    List.map (( ^ ) name) [ " header truncated"; " payload truncated"; " checksum mismatch" ]
  in
  [ "frame too short"; "bad ethertype"; "unknown protocol" ] @ transport "tcp" @ transport "udp"

let decode b =
  if Bytes.length b < transport_off then Error "frame too short"
  else if get_u16 b 12 <> 0x0800 then Error "bad ethertype"
  else begin
    let dst_mac = get_u48 b 0 and src_mac = get_u48 b 6 in
    let src_ip = get_u32 b 14 and dst_ip = get_u32 b 18 in
    let proto = Bytes.get_uint8 b 22 in
    let packet body = Ok { dst_mac; src_mac; packet = { src_ip; dst_ip; body } } in
    if proto = proto_tcp then
      match checked_payload b ~name:"tcp" ~hdr_len:tcp_hdr_len with
      | Error _ as e -> e
      | Ok payload ->
          let flags = Bytes.get_uint8 b 35 in
          packet
            (Tcp
               {
                 src_port = get_u16 b 23;
                 dst_port = get_u16 b 25;
                 seq = get_u32 b 27;
                 ack_no = get_u32 b 31;
                 syn = flags land 1 <> 0;
                 ack = flags land 2 <> 0;
                 fin = flags land 4 <> 0;
                 rst = flags land 8 <> 0;
                 window = get_u32 b 36;
                 payload;
               })
    else if proto = proto_udp then
      match checked_payload b ~name:"udp" ~hdr_len:udp_hdr_len with
      | Error _ as e -> e
      | Ok payload -> packet (Udp { src_port = get_u16 b 23; dst_port = get_u16 b 25; payload })
    else Error "unknown protocol"
  end
