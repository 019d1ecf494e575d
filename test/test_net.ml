(* Tests for the network stack below the INET server: wire codecs,
   the TCP engine driven over a simulated (lossy, reordering-free)
   pipe, and the TCP host that INET and the remote peer share. *)

module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Wire = Resilix_net.Wire
module Tcp = Resilix_net.Tcp
module Filegen = Resilix_net.Filegen
module Timerset = Resilix_net.Timerset
module Host = Resilix_net.Host
module Peer = Resilix_net.Peer
module Link = Resilix_hw.Link
module Crc32 = Resilix_checksum.Crc32
module Xxh64 = Resilix_checksum.Xxh64
module Md5 = Resilix_checksum.Md5

(* --- wire codec --- *)

let seg ?(payload = "") ?(syn = false) ?(ack = false) ?(fin = false) ?(rst = false) () =
  {
    Wire.src_port = 1234;
    dst_port = 80;
    seq = 0x89ABCDEF;
    ack_no = 0x01020304;
    syn;
    ack;
    fin;
    rst;
    window = 65535;
    payload = Bytes.of_string payload;
  }

let frame body =
  { Wire.dst_mac = 0x0000_0000_0002; src_mac = 0x0000_0000_0001; packet = { Wire.src_ip = Wire.ip 10 0 0 1; dst_ip = Wire.ip 10 0 0 2; body } }

let test_tcp_roundtrip () =
  let f = frame (Wire.Tcp (seg ~payload:"hello tcp" ~ack:true ())) in
  match Wire.decode (Wire.encode f) with
  | Error e -> Alcotest.fail e
  | Ok f' -> (
      Alcotest.(check bool) "macs preserved" true (f'.Wire.dst_mac = f.Wire.dst_mac);
      match f'.Wire.packet.body with
      | Wire.Tcp s ->
          Alcotest.(check string) "payload" "hello tcp" (Bytes.to_string s.Wire.payload);
          Alcotest.(check int) "seq" 0x89ABCDEF s.Wire.seq;
          Alcotest.(check bool) "ack flag" true s.Wire.ack
      | Wire.Udp _ -> Alcotest.fail "wrong protocol")

let test_udp_roundtrip () =
  let f = frame (Wire.Udp { Wire.src_port = 53; dst_port = 5353; payload = Bytes.of_string "dns?" }) in
  match Wire.decode (Wire.encode f) with
  | Error e -> Alcotest.fail e
  | Ok f' -> (
      match f'.Wire.packet.body with
      | Wire.Udp d -> Alcotest.(check string) "payload" "dns?" (Bytes.to_string d.Wire.payload)
      | Wire.Tcp _ -> Alcotest.fail "wrong protocol")

let test_corruption_detected () =
  let f = frame (Wire.Tcp (seg ~payload:"integrity matters" ~ack:true ())) in
  let b = Wire.encode f in
  (* Flip one payload bit. *)
  let i = Bytes.length b - 3 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  match Wire.decode b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted frame must not decode"

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"wire roundtrip for arbitrary payloads" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 1460))
    (fun payload ->
      let f = frame (Wire.Tcp (seg ~payload ~ack:true ())) in
      match Wire.decode (Wire.encode f) with
      | Ok { Wire.packet = { body = Wire.Tcp s; _ }; _ } ->
          Bytes.to_string s.Wire.payload = payload
      | _ -> false)

(* Oracle: a straightforward Buffer-based encoder of the same layout. *)
let reference_encode (frame : Wire.frame) =
  let put_u16 buf v =
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  in
  let put_u32 buf v =
    put_u16 buf ((v lsr 16) land 0xFFFF);
    put_u16 buf (v land 0xFFFF)
  in
  let put_u48 buf v =
    put_u16 buf ((v lsr 32) land 0xFFFF);
    put_u32 buf (v land 0xFFFF_FFFF)
  in
  let buf = Buffer.create 64 in
  put_u48 buf frame.dst_mac;
  put_u48 buf frame.src_mac;
  put_u16 buf 0x0800;
  put_u32 buf frame.packet.src_ip;
  put_u32 buf frame.packet.dst_ip;
  let proto, hdr, payload =
    let hdr = Buffer.create 32 in
    match frame.packet.body with
    | Wire.Tcp seg ->
        put_u16 hdr seg.src_port;
        put_u16 hdr seg.dst_port;
        put_u32 hdr (seg.seq land 0xFFFF_FFFF);
        put_u32 hdr (seg.ack_no land 0xFFFF_FFFF);
        Buffer.add_char hdr
          (Char.chr
             ((if seg.syn then 1 else 0)
             lor (if seg.ack then 2 else 0)
             lor (if seg.fin then 4 else 0)
             lor if seg.rst then 8 else 0));
        put_u32 hdr seg.window;
        put_u16 hdr (Bytes.length seg.payload);
        (6, Buffer.contents hdr, seg.payload)
    | Wire.Udp dgram ->
        put_u16 hdr dgram.src_port;
        put_u16 hdr dgram.dst_port;
        put_u16 hdr (Bytes.length dgram.payload);
        (17, Buffer.contents hdr, dgram.payload)
  in
  Buffer.add_char buf (Char.chr proto);
  Buffer.add_string buf hdr;
  put_u32 buf
    (Crc32.finish
       (Crc32.update_string (Crc32.update_string Crc32.start hdr) (Bytes.to_string payload)));
  Buffer.add_bytes buf payload;
  Buffer.to_bytes buf

(* Random frames: 48-bit MACs, 32-bit addresses, sequence numbers
   clustered around the 2^32 wrap (and some not yet reduced mod 2^32),
   every flag combination, payloads up to the MSS. *)
let gen_frame =
  QCheck.Gen.(
    let bits n = map (fun v -> v land ((1 lsl n) - 1)) int in
    let seq =
      oneof [ bits 32; map (fun d -> 0xFFFF_FFFF - d) (int_bound 3000); bits 40 ]
    in
    let payload = map Bytes.of_string (string_size (oneof [ int_bound 16; int_bound 1460 ])) in
    let* dst_mac = bits 48 and* src_mac = bits 48 in
    let* src_ip = bits 32 and* dst_ip = bits 32 in
    let* src_port = bits 16 and* dst_port = bits 16 in
    let* body =
      oneof
        [
          (let* seq = seq and* ack_no = seq and* flags = int_bound 15 and* window = bits 32 in
           let* payload = payload in
           return
             (Wire.Tcp
                {
                  Wire.src_port;
                  dst_port;
                  seq;
                  ack_no;
                  syn = flags land 1 <> 0;
                  ack = flags land 2 <> 0;
                  fin = flags land 4 <> 0;
                  rst = flags land 8 <> 0;
                  window;
                  payload;
                }));
          map (fun payload -> Wire.Udp { Wire.src_port; dst_port; payload }) payload;
        ]
    in
    return { Wire.dst_mac; src_mac; packet = { Wire.src_ip; dst_ip; body } })

let arb_frame =
  QCheck.make gen_frame ~print:(fun f ->
      Printf.sprintf "%S" (Bytes.to_string (reference_encode f)))

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"wire encode = reference encoder" ~count:500 arb_frame (fun f ->
      Bytes.equal (Wire.encode f) (reference_encode f))

(* --- decode fuzzing: typed errors, never an exception --- *)

let decode_total b =
  match Wire.decode b with
  | Error e when not (List.mem e Wire.decode_errors) ->
      QCheck.Test.fail_reportf "decode error %S is not in Wire.decode_errors" e
  | r -> r
  | exception e -> QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let prop_decode_random_bytes =
  QCheck.Test.make ~name:"wire decode rejects random bytes" ~count:500
    QCheck.(
      triple (string_of_size (Gen.int_bound 120)) bool (make Gen.(oneofl [ 6; 17; 0; 255 ])))
    (fun (s, plausible, proto) ->
      let b = Bytes.of_string s in
      (* Half the inputs get a valid ethertype and protocol byte, so
         they reach the transport parsers. *)
      if plausible && Bytes.length b > 22 then begin
        Bytes.set_uint16_be b 12 0x0800;
        Bytes.set_uint8 b 22 proto
      end;
      Result.is_error (decode_total b))

let prop_decode_truncated =
  QCheck.Test.make ~name:"wire decode rejects truncated frames" ~count:300
    QCheck.(pair arb_frame (make Gen.nat))
    (fun (f, cut) ->
      let b = Wire.encode f in
      let keep = cut mod Bytes.length b in
      Result.is_error (decode_total (Bytes.sub b 0 keep)))

(* A one-byte change anywhere in the transport header, CRC field or
   payload is reported as a checksum mismatch, except a length field
   grown past the frame, which is reported as truncation.  Changes in
   the link and IP header never raise. *)
let prop_decode_flipped =
  QCheck.Test.make ~name:"wire decode catches single-byte flips" ~count:500
    QCheck.(triple arb_frame (make Gen.nat) (make Gen.(int_range 1 255)))
    (fun (f, pos, x) ->
      let b = Wire.encode f in
      let pos = pos mod Bytes.length b in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor x);
      let name, len_field, payload =
        match f.Wire.packet.body with
        | Wire.Tcp seg -> ("tcp", 40, seg.Wire.payload)
        | Wire.Udp dgram -> ("udp", 27, dgram.Wire.payload)
      in
      let expected =
        if Bytes.get_uint16_be b len_field > Bytes.length payload then "payload truncated"
        else "checksum mismatch"
      in
      match decode_total b with
      | _ when pos < 23 -> true
      | Error e -> e = name ^ " " ^ expected
      | Ok _ -> false)

(* Oracle: the file content computed one byte at a time. *)
let reference_filegen_read ~seed ~off ~len =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  Bytes.init len (fun i ->
      let abs = off + i in
      let w =
        mix
          (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int ((abs / 8) + 1))))
      in
      Char.chr (Int64.to_int (Int64.shift_right_logical w (8 * (abs mod 8))) land 0xFF))

let prop_filegen_matches_reference =
  QCheck.Test.make ~name:"filegen read = bytewise reference" ~count:500
    QCheck.(triple small_int (int_bound 100_000) (make Gen.(oneof [ int_bound 9; int_bound 200 ])))
    (fun (seed, off, len) ->
      Bytes.equal (Filegen.read ~seed ~off ~len) (reference_filegen_read ~seed ~off ~len))

(* The digests of a whole file, generated 64 KB at a time into one
   reused buffer, equal the one-shot digests of the file read in one
   piece: sizes straddle the 8-byte word, the 32-byte stripe and the
   65,536-byte chunk. *)
let test_filegen_digest_one_shot () =
  List.iter
    (fun size ->
      let whole = Filegen.read ~seed:7 ~off:0 ~len:size in
      let h = Xxh64.init () in
      Xxh64.update h whole ~off:0 ~len:size;
      Alcotest.(check string)
        (Printf.sprintf "xxh64, size %d" size)
        (Xxh64.to_hex (Xxh64.digest h))
        (Filegen.digest ~seed:7 ~size);
      Alcotest.(check string)
        (Printf.sprintf "md5, size %d" size)
        (Md5.digest_string (Bytes.to_string whole))
        (Filegen.md5_digest ~seed:7 ~size))
    [ 0; 1; 7; 8; 9; 31; 32; 33; 63; 64; 65; 65_535; 65_536; 65_537; 131_071; 131_072; 131_105 ]

(* --- TCP over a simulated pipe --- *)

(* Wire two TCP engines together through the engine with latency,
   optional loss, and per-connection timers. *)
type pipe_end = {
  mutable conn : Tcp.t option;
  mutable timer : Engine.handle option;
  mutable events : Tcp.event list;
}

let make_pair ?(latency = 500) ?(drop_prob = 0.) ?(seed = 7) ?tx_buffer ?rx_window engine =
  let rng = Rng.create ~seed in
  let a = { conn = None; timer = None; events = [] } in
  let b = { conn = None; timer = None; events = [] } in
  let deliver_to dst seg =
    if not (Rng.bool rng drop_prob) then
      ignore
        (Engine.schedule engine ~after:latency (fun () ->
             match dst.conn with
             | Some c -> Tcp.handle_segment c ~now:(Engine.now engine) seg
             | None -> ()))
  in
  let callbacks this other =
    {
      Tcp.emit = (fun seg -> deliver_to other seg);
      set_timer =
        (fun delay ->
          (match this.timer with Some h -> Engine.cancel h | None -> ());
          this.timer <- None;
          match delay with
          | Some d ->
              this.timer <-
                Some
                  (Engine.schedule engine ~after:d (fun () ->
                       this.timer <- None;
                       match this.conn with
                       | Some c -> Tcp.handle_timer c ~now:(Engine.now engine)
                       | None -> ()))
          | None -> ());
      notify = (fun ev -> this.events <- ev :: this.events);
    }
  in
  let sized cfg =
    {
      cfg with
      Tcp.tx_buffer = Option.value tx_buffer ~default:cfg.Tcp.tx_buffer;
      rx_window = Option.value rx_window ~default:cfg.Tcp.rx_window;
    }
  in
  let cfg_a = sized (Tcp.default_config ~local_port:1000 ~remote_port:2000 ~isn:111) in
  let cfg_b = sized (Tcp.default_config ~local_port:2000 ~remote_port:1000 ~isn:999_222) in
  b.conn <- Some (Tcp.create_passive cfg_b ~now:0 (callbacks b a));
  a.conn <- Some (Tcp.create_active cfg_a ~now:0 (callbacks a b));
  (a, b)

let test_handshake () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  Engine.run engine ~until:1_000_000;
  Alcotest.(check bool) "A established" true (Tcp.is_established (Option.get a.conn));
  Alcotest.(check bool) "B established" true (Tcp.is_established (Option.get b.conn))

(* Pump [total] bytes from A to B through app-level send/recv loops.
   The feeder offers [chunks] bytes per call and the drainer asks for
   [maxes] bytes per call, each list taken in turn and repeated.  Every
   receive must return exactly what was asked for, capped by
   [Tcp.rx_available], and the bytes read plus those still readable
   must never shrink. *)
let transfer ?(maxes = [ 65536 ]) engine a b ~total ~chunks =
  let sent = ref 0 and received = Buffer.create total in
  let conn_a = Option.get a.conn and conn_b = Option.get b.conn in
  let src_byte i = Char.chr (((i * 131) + (i / 251)) land 0xFF) in
  let cycle l =
    let rest = ref [] in
    fun () ->
      if !rest = [] then rest := l;
      let x = List.hd !rest in
      rest := List.tl !rest;
      x
  in
  let next_chunk = cycle chunks and next_max = cycle maxes in
  let delivered = ref 0 in
  let rec feeder () =
    if !sent < total && not (Tcp.is_closed conn_a) then begin
      let want = min (next_chunk ()) (total - !sent) in
      let data = Bytes.init want (fun i -> src_byte (!sent + i)) in
      let accepted = Tcp.send conn_a ~now:(Engine.now engine) data ~off:0 ~len:want in
      sent := !sent + accepted;
      if !sent >= total then Tcp.close conn_a ~now:(Engine.now engine);
      ignore (Engine.schedule engine ~after:2_000 feeder)
    end
  in
  let rec drainer () =
    let available = Tcp.rx_available conn_b and max = next_max () in
    if Buffer.length received + available < !delivered then failwith "delivered bytes shrank";
    delivered := Buffer.length received + available;
    let data = Tcp.recv conn_b ~max in
    if Bytes.length data <> Stdlib.max 0 (min max available) then failwith "recv length";
    if Tcp.rx_available conn_b <> available - Bytes.length data then
      failwith "rx_available after recv";
    Buffer.add_bytes received data;
    if not (Tcp.peer_closed conn_b && Tcp.rx_available conn_b = 0) then
      ignore (Engine.schedule engine ~after:2_000 drainer)
  in
  feeder ();
  drainer ();
  Engine.run engine ~until:600_000_000;
  let got = Buffer.contents received in
  let expected = String.init total src_byte in
  (got, expected)

let test_bulk_transfer_clean () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let got, expected = transfer engine a b ~total:200_000 ~chunks:[ 8192 ] in
  Alcotest.(check int) "all bytes arrive" (String.length expected) (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected)

let test_bulk_transfer_lossy () =
  let engine = Engine.create () in
  let a, b = make_pair ~drop_prob:0.05 ~seed:21 engine in
  let got, expected = transfer engine a b ~total:120_000 ~chunks:[ 4096 ] in
  Alcotest.(check int) "all bytes arrive despite 5% loss" (String.length expected)
    (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected);
  Alcotest.(check bool) "losses caused retransmissions" true
    (Tcp.retransmissions (Option.get a.conn) > 0)

let test_transfer_across_blackout () =
  (* Model a driver crash: 100% loss for a window in the middle of the
     transfer; TCP must recover afterwards (Sec. 6.1). *)
  let engine = Engine.create () in
  let dropping = ref false in
  let rng = Rng.create ~seed:5 in
  let a = { conn = None; timer = None; events = [] } in
  let b = { conn = None; timer = None; events = [] } in
  let deliver_to dst seg =
    ignore rng;
    if not !dropping then
      ignore
        (Engine.schedule engine ~after:500 (fun () ->
             match dst.conn with
             | Some c -> Tcp.handle_segment c ~now:(Engine.now engine) seg
             | None -> ()))
  in
  let callbacks this other =
    {
      Tcp.emit = (fun seg -> deliver_to other seg);
      set_timer =
        (fun delay ->
          (match this.timer with Some h -> Engine.cancel h | None -> ());
          this.timer <- None;
          match delay with
          | Some d ->
              this.timer <-
                Some
                  (Engine.schedule engine ~after:d (fun () ->
                       this.timer <- None;
                       match this.conn with
                       | Some c -> Tcp.handle_timer c ~now:(Engine.now engine)
                       | None -> ()))
          | None -> ());
      notify = (fun ev -> this.events <- ev :: this.events);
    }
  in
  let cfg_a = Tcp.default_config ~local_port:1000 ~remote_port:2000 ~isn:77 in
  let cfg_b = Tcp.default_config ~local_port:2000 ~remote_port:1000 ~isn:88 in
  b.conn <- Some (Tcp.create_passive cfg_b ~now:0 (callbacks b a));
  a.conn <- Some (Tcp.create_active cfg_a ~now:0 (callbacks a b));
  (* Blackout between t=1s and t=1.5s. *)
  ignore (Engine.schedule engine ~after:1_000_000 (fun () -> dropping := true));
  ignore (Engine.schedule engine ~after:1_500_000 (fun () -> dropping := false));
  let got, expected = transfer engine a b ~total:400_000 ~chunks:[ 8192 ] in
  Alcotest.(check int) "all bytes arrive across the blackout" (String.length expected)
    (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected)

let test_clean_close () =
  let engine = Engine.create () in
  let a, b = make_pair engine in
  let conn_a = Option.get a.conn and conn_b = Option.get b.conn in
  ignore
    (Engine.schedule engine ~after:10_000 (fun () ->
         let data = Bytes.of_string "bye" in
         ignore (Tcp.send conn_a ~now:(Engine.now engine) data ~off:0 ~len:3);
         Tcp.close conn_a ~now:(Engine.now engine)));
  ignore
    (Engine.schedule engine ~after:200_000 (fun () ->
         ignore (Tcp.recv conn_b ~max:100);
         Tcp.close conn_b ~now:(Engine.now engine)));
  Engine.run engine ~until:30_000_000;
  Alcotest.(check bool) "A fully closed" true (Tcp.is_closed conn_a);
  Alcotest.(check bool) "B saw peer close" true (Tcp.peer_closed conn_b)

(* Random loss, send and receive queue sizes, send chunk sizes (some
   larger than the whole send queue) and receive sizes (some 0 or
   negative, some larger than anything buffered). *)
let prop_lossy_transfer_delivers_exactly =
  let gen =
    QCheck.Gen.(
      let* total = int_range 1 40_000 and* loss_pct = int_range 0 15 in
      let* buffer = oneofl [ 4096; 16_384; 262_144 ] and* window = oneofl [ 4096; 16_384; 262_144 ] in
      let* chunks = list_size (int_range 0 4) (oneof [ int_range 0 100; int_range 1 300_000 ]) in
      let* maxes =
        list_size (int_range 0 6) (oneof [ int_range (-3) 0; int_range 1 2000; int_range 1 1_000_000 ])
      in
      (* One positive size of each kind keeps both loops moving. *)
      return (total, loss_pct, buffer, window, chunks @ [ 3000 ], maxes @ [ 1500 ]))
  in
  QCheck.Test.make ~name:"tcp delivers the exact stream under random loss" ~count:40
    (QCheck.make gen ~print:(fun (total, loss, buffer, window, chunks, maxes) ->
         let ints l = String.concat "," (List.map string_of_int l) in
         Printf.sprintf "total=%d loss=%d%% tx_buffer=%d rx_window=%d chunks=[%s] maxes=[%s]" total
           loss buffer window (ints chunks) (ints maxes)))
    (fun (total, loss_pct, tx_buffer, rx_window, chunks, maxes) ->
      let engine = Engine.create () in
      let a, b =
        make_pair ~drop_prob:(float_of_int loss_pct /. 100.) ~seed:(total + loss_pct) ~tx_buffer
          ~rx_window engine
      in
      let got, expected = transfer ~maxes engine a b ~total ~chunks in
      Tcp.rx_available (Option.get b.conn) = 0 && String.equal got expected)

(* --- timer multiplexer --- *)

type timer_op = Set of int * int | Cancel of int | Next | Take of int

(* Random operation sequences over few keys and few deadlines, so ties
   and re-armed keys are common, checked against an association list
   of armed (key, deadline) pairs. *)
let prop_timerset_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k d -> Set (k, d)) (int_bound 7) (int_bound 20));
          (2, map (fun k -> Cancel k) (int_bound 7));
          (2, return Next);
          (2, map (fun now -> Take now) (int_bound 25));
        ])
  in
  let print = function
    | Set (k, d) -> Printf.sprintf "set %d@%d" k d
    | Cancel k -> Printf.sprintf "cancel %d" k
    | Next -> "next"
    | Take now -> Printf.sprintf "take %d" now
  in
  QCheck.Test.make ~count:500 ~name:"timerset matches an association-list model"
    QCheck.(make ~print:(Print.list print) Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let ts = Timerset.create () in
      let model = ref [] in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Set (key, deadline) ->
                Timerset.set ts ~key ~deadline;
                model := (key, deadline) :: List.remove_assoc key !model;
                true
            | Cancel key ->
                Timerset.cancel ts ~key;
                model := List.remove_assoc key !model;
                true
            | Next ->
                let expected =
                  List.fold_left
                    (fun acc (_, d) -> Some (match acc with None -> d | Some m -> min m d))
                    None !model
                in
                Timerset.next_deadline ts = expected
            | Take now ->
                let due, rest = List.partition (fun (_, d) -> d <= now) !model in
                model := rest;
                Timerset.take_due ts ~now = List.sort Int.compare (List.map fst due)
          in
          agrees && Timerset.armed ts = List.length !model)
        ops)

(* --- the TCP host --- *)

let test_host_reset_for () =
  let check_rst name ~seq ~ack_no ~ack = function
    | None -> Alcotest.fail (name ^ ": no reset")
    | Some (r : Wire.tcp_segment) ->
        Alcotest.(check (list int))
          (name ^ ": ports, seq, ack_no") [ 80; 1234; seq; ack_no ]
          [ r.src_port; r.dst_port; r.seq; r.ack_no ];
        Alcotest.(check (list bool))
          (name ^ ": rst, ack, syn, fin") [ true; ack; false; false ] [ r.rst; r.ack; r.syn; r.fin ]
  in
  (* With ACK: the reset takes the acknowledged number as its sequence
     number and acknowledges nothing. *)
  check_rst "ack" ~seq:0x01020304 ~ack_no:0 ~ack:false (Host.reset_for (seg ~ack:true ()));
  check_rst "ack+payload" ~seq:0x01020304 ~ack_no:0 ~ack:false
    (Host.reset_for (seg ~ack:true ~payload:"data" ()));
  (* Without: sequence 0, acknowledging everything the segment occupies. *)
  check_rst "bare syn" ~seq:0 ~ack_no:0x89ABCDF0 ~ack:true (Host.reset_for (seg ~syn:true ()));
  check_rst "fin+payload" ~seq:0 ~ack_no:0x89ABCDF4 ~ack:true
    (Host.reset_for (seg ~fin:true ~payload:"abcd" ()));
  Alcotest.(check bool) "a reset is never answered" true
    (Host.reset_for (seg ~rst:true ~ack:true ()) = None)

(* A host on a settable clock whose connections record what they emit
   as (tkey, segment), newest first. *)
let host_rig () =
  let clock = ref 0 and armed = ref [] and emitted = ref [] in
  let h = Host.create ~now:(fun () -> !clock) ~arm:(fun d -> armed := d :: !armed) in
  let open_conn ?(active = false) ~key ~tkey () =
    let _, rport, lport = key in
    Host.open_conn h ~key ~tkey ~active
      (Tcp.default_config ~local_port:lport ~remote_port:rport ~isn:(1000 * tkey))
      ~emit:(fun s -> emitted := (tkey, s) :: !emitted)
      ~notify:ignore
  in
  (h, clock, armed, emitted, open_conn)

let remote = Wire.ip 10 0 0 1

let syn_to port = { (seg ~syn:true ()) with Wire.dst_port = port }

let test_host_demux_by_local_port () =
  let h, _, _, emitted, open_conn = host_rig () in
  let _ = open_conn ~key:(remote, 1234, 80) ~tkey:1 () in
  let _ = open_conn ~key:(remote, 1234, 81) ~tkey:2 () in
  let answered port =
    emitted := [];
    let owned = Host.input h ~remote_ip:remote (syn_to port) in
    (owned, List.map (fun (k, (s : Wire.tcp_segment)) -> (k, s.src_port, s.syn && s.ack)) !emitted)
  in
  Alcotest.(check (pair bool (list (triple int int bool))))
    "port 80" (true, [ (1, 80, true) ]) (answered 80);
  Alcotest.(check (pair bool (list (triple int int bool))))
    "port 81" (true, [ (2, 81, true) ]) (answered 81);
  Alcotest.(check (pair bool (list (triple int int bool)))) "port 82" (false, []) (answered 82);
  Alcotest.(check bool) "other remote ip" false
    (Host.input h ~remote_ip:(Wire.ip 10 0 0 9) (syn_to 80))

let test_host_timers_fire_in_tkey_order () =
  let h, clock, armed, emitted, open_conn = host_rig () in
  List.iter
    (fun tkey -> ignore (open_conn ~active:true ~key:(remote, 80, 40_000 + tkey) ~tkey ()))
    [ 5; 2; 9 ];
  Alcotest.(check (option int)) "armed for the first RTO" (Some 200_000) (List.hd !armed);
  emitted := [];
  clock := 200_000;
  Host.fire h;
  Alcotest.(check (list int)) "SYNs resent in tkey order" [ 2; 5; 9 ] (List.rev_map fst !emitted);
  Alcotest.(check (option int)) "re-armed after the backed-off RTO" (Some 600_000) (List.hd !armed)

let test_host_forget_keeps_newer () =
  let h, clock, _, emitted, open_conn = host_rig () in
  let key = (remote, 1234, 80) in
  let old = open_conn ~active:true ~key ~tkey:1 () in
  let newer = open_conn ~key ~tkey:1 () in
  Host.forget h ~key ~tkey:1 old;
  emitted := [];
  Alcotest.(check bool) "newer still owns the key" true (Host.input h ~remote_ip:remote (syn_to 80));
  clock := 200_000;
  Host.fire h;
  Alcotest.(check int) "newer's SYN-ACK and its retransmission" 2
    (List.length (List.filter (fun (_, (s : Wire.tcp_segment)) -> s.syn && s.ack) !emitted));
  Host.forget h ~key ~tkey:1 newer;
  Alcotest.(check bool) "forgotten" false (Host.input h ~remote_ip:remote (syn_to 80))

(* Segments for no connection reach the peer's stray-RST path: it
   answers with the host's reset, framed back to the sender. *)
let test_peer_resets_strays () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:3 in
  let link = Link.create ~engine ~rng () in
  let peer_ip = Wire.ip 10 0 0 2 and peer_mac = 0x0000_0000_0002 in
  let _peer = Peer.create ~engine ~rng ~link ~side:Link.B ~ip:peer_ip ~mac:peer_mac () in
  let replies = ref [] in
  Link.attach link Link.A (fun raw ->
      match Wire.decode raw with
      | Ok { Wire.dst_mac = 0x0000_0000_0001; packet = { dst_ip; body = Wire.Tcp r; _ }; _ }
        when dst_ip = remote ->
          replies := r :: !replies
      | _ -> Alcotest.fail "reply not framed back to the sender");
  (* Each reply as ((rst, ack), (seq, ack_no)). *)
  let replies_to s =
    let packet = { Wire.src_ip = remote; dst_ip = peer_ip; body = Wire.Tcp s } in
    Link.send link Link.A
      (Wire.encode { Wire.dst_mac = peer_mac; src_mac = 0x0000_0000_0001; packet });
    replies := [];
    Engine.run engine ~until:(Engine.now engine + 10_000);
    List.map (fun (r : Wire.tcp_segment) -> ((r.rst, r.ack), (r.seq, r.ack_no))) !replies
  in
  let check = Alcotest.(check (list (pair (pair bool bool) (pair int int)))) in
  check "stray ack to port 80" [ ((true, false), (0x01020304, 0)) ] (replies_to (seg ~ack:true ()));
  check "syn to a closed port" [ ((true, true), (0, 0x89ABCDF0)) ] (replies_to (syn_to 81));
  check "stray reset" [] (replies_to (seg ~rst:true ~ack:true ()))

let tests =
  [
    Alcotest.test_case "wire tcp roundtrip" `Quick test_tcp_roundtrip;
    Alcotest.test_case "wire udp roundtrip" `Quick test_udp_roundtrip;
    Alcotest.test_case "wire corruption detected" `Quick test_corruption_detected;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_encode_matches_reference;
    QCheck_alcotest.to_alcotest prop_decode_random_bytes;
    QCheck_alcotest.to_alcotest prop_decode_truncated;
    QCheck_alcotest.to_alcotest prop_decode_flipped;
    QCheck_alcotest.to_alcotest prop_filegen_matches_reference;
    Alcotest.test_case "filegen digests = one-shot" `Quick test_filegen_digest_one_shot;
    QCheck_alcotest.to_alcotest prop_timerset_model;
    Alcotest.test_case "tcp handshake" `Quick test_handshake;
    Alcotest.test_case "tcp bulk transfer (clean)" `Quick test_bulk_transfer_clean;
    Alcotest.test_case "tcp bulk transfer (5% loss)" `Quick test_bulk_transfer_lossy;
    Alcotest.test_case "tcp across 0.5s blackout" `Quick test_transfer_across_blackout;
    Alcotest.test_case "tcp clean close" `Quick test_clean_close;
    QCheck_alcotest.to_alcotest prop_lossy_transfer_delivers_exactly;
    Alcotest.test_case "host reset_for follows RFC 793" `Quick test_host_reset_for;
    Alcotest.test_case "host demuxes by local port" `Quick test_host_demux_by_local_port;
    Alcotest.test_case "host timers fire in tkey order" `Quick test_host_timers_fire_in_tkey_order;
    Alcotest.test_case "host forget keeps a newer connection" `Quick test_host_forget_keeps_newer;
    Alcotest.test_case "peer resets strays" `Quick test_peer_resets_strays;
  ]
