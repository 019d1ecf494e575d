(* Tests for the hardware models: bus routing, link timing, block
   store determinism, device FIFOs, failure modes (wedging, burn gaps,
   underruns) and the NICs' registers and receive paths, driven
   through raw bus I/O. *)

module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Privilege = Resilix_proto.Privilege
module Wellknown = Resilix_proto.Wellknown
module Bus = Resilix_hw.Bus
module Link = Resilix_hw.Link
module Blockstore = Resilix_hw.Blockstore
module Fnv = Resilix_checksum.Fnv
module Audio_dev = Resilix_hw.Audio_dev
module Printer_dev = Resilix_hw.Printer_dev
module Cd_dev = Resilix_hw.Cd_dev
module Disk = Resilix_hw.Disk
module Nic = Resilix_hw.Nic
module Nic8139 = Resilix_hw.Nic8139
module Nic8390 = Resilix_hw.Nic8390

let make_kernel ?metrics () =
  let engine = Engine.create () in
  let kernel = Kernel.create ~engine ~trace:(Trace.create ()) ~rng:(Rng.create ~seed:2) ?metrics () in
  (engine, kernel)

(* --- bus --- *)

let test_bus_routing () =
  let bus = Bus.create () in
  let log = ref [] in
  Bus.register bus ~base:0x100 ~len:4
    ~read:(fun reg ->
      log := ("read", reg) :: !log;
      0x40 + reg)
    ~write:(fun _ v -> log := ("write", v) :: !log);
  Alcotest.(check int) "read routes with relative reg" 0x42 (Bus.read bus 0x102);
  Bus.write bus 0x103 99;
  Alcotest.(check (list (pair string int))) "accesses seen" [ ("write", 99); ("read", 2) ] !log

let test_bus_unclaimed_floats () =
  let bus = Bus.create () in
  Alcotest.(check int) "unclaimed port reads all-ones" 0xFFFF_FFFF (Bus.read bus 0x999);
  Alcotest.(check unit) "unclaimed write swallowed" () (Bus.write bus 0x999 1)

let test_bus_overlap_rejected () =
  let bus = Bus.create () in
  let read _ = 0 and write _ _ = () in
  Bus.register bus ~base:0x100 ~len:8 ~read ~write;
  Alcotest.check_raises "overlapping claim" (Invalid_argument "Bus.register: overlapping port range")
    (fun () -> Bus.register bus ~base:0x104 ~len:2 ~read ~write)

(* --- link --- *)

let test_link_timing () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) ~latency:200 ~bytes_per_us:12 () in
  let arrived_at = ref (-1) in
  Link.attach link Link.B (fun _ -> arrived_at := Engine.now engine);
  Link.send link Link.A (Bytes.make 1200 'x');
  Engine.run engine;
  (* 1200 bytes at 12 B/us = 100 us serialization + 200 us latency. *)
  Alcotest.(check int) "serialization + propagation" 300 !arrived_at

let test_link_serializes_bursts () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) ~latency:0 ~bytes_per_us:10 () in
  let times = ref [] in
  Link.attach link Link.B (fun _ -> times := Engine.now engine :: !times);
  for _ = 1 to 3 do
    Link.send link Link.A (Bytes.make 100 'x')
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "back-to-back frames queue behind each other" [ 10; 20; 30 ]
    (List.rev !times)

let test_link_drops () =
  let engine = Engine.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) ~drop_prob:1.0 () in
  let got = ref 0 in
  Link.attach link Link.B (fun _ -> incr got);
  for _ = 1 to 10 do
    Link.send link Link.A (Bytes.make 10 'x')
  done;
  Engine.run engine;
  Alcotest.(check int) "all frames dropped" 0 !got;
  Alcotest.(check int) "drops counted" 10 (Link.frames_dropped link)

(* --- block store --- *)

let test_blockstore_determinism () =
  let a = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  let b = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  Alcotest.(check bool) "same seed, same content" true
    (Bytes.equal (Blockstore.read a ~lba:5 ~count:3) (Blockstore.read b ~lba:5 ~count:3));
  let c = Blockstore.create ~seed:8 ~sectors:128 ~sector_size:512 in
  Alcotest.(check bool) "different seed differs" false
    (Bytes.equal (Blockstore.read a ~lba:5 ~count:3) (Blockstore.read c ~lba:5 ~count:3))

let test_blockstore_write_persists () =
  let s = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  let data = Bytes.make 1024 'Z' in
  Blockstore.write s ~lba:10 data;
  Alcotest.(check bool) "written content read back" true
    (Bytes.equal data (Blockstore.read s ~lba:10 ~count:2));
  (* Neighbours keep their generated content. *)
  let before = Blockstore.read s ~lba:12 ~count:1 in
  Alcotest.(check bool) "neighbour unchanged" true
    (Bytes.equal before (Blockstore.read s ~lba:12 ~count:1))

let prop_blockstore_reads_stable =
  QCheck.Test.make ~name:"blockstore reads are stable" ~count:100
    QCheck.(pair (int_bound 100) (int_range 1 8))
    (fun (lba, count) ->
      let s = Blockstore.create ~seed:99 ~sectors:256 ~sector_size:512 in
      let one = Blockstore.read s ~lba ~count in
      let two = Blockstore.read s ~lba ~count in
      Bytes.equal one two)

(* Generated content is pinned, not only compared between two stores:
   the FNV-1a of the first 64 sectors of a seed-7 disk (32 KB). *)
let test_blockstore_content_pinned () =
  let s = Blockstore.create ~seed:7 ~sectors:2048 ~sector_size:512 in
  let b = Blockstore.read s ~lba:0 ~count:64 in
  Alcotest.(check string)
    "fnv of sectors 0-63" "74f191365098e7fb"
    (Fnv.to_hex (Fnv.update Fnv.start b ~off:0 ~len:(Bytes.length b)))

let test_blockstore_read_is_sectors () =
  let s = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  Blockstore.write s ~lba:3 (Bytes.make 1024 'A');
  Blockstore.write s ~lba:9 (Bytes.make 512 'B');
  let expected = Bytes.concat Bytes.empty (List.init 16 (fun i -> Blockstore.sector s (2 + i))) in
  Alcotest.(check bool) "read 2-17 = sector 2 ^ ... ^ sector 17" true
    (Bytes.equal expected (Blockstore.read s ~lba:2 ~count:16));
  Alcotest.(check bool) "written sector" true (Bytes.equal (Bytes.make 512 'B') (Blockstore.sector s 9))

(* [lba + count] overflows to a negative number here.  Content is
   generated a word at a time, so a sector must be whole words. *)
let test_blockstore_bad_ranges () =
  Alcotest.check_raises "sector size" (Invalid_argument "Blockstore.create: sector size") (fun () ->
      ignore (Blockstore.create ~seed:7 ~sectors:128 ~sector_size:500));
  let s = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  Alcotest.check_raises "read" (Invalid_argument "Blockstore.read") (fun () ->
      ignore (Blockstore.read s ~lba:1 ~count:max_int));
  Alcotest.check_raises "write" (Invalid_argument "Blockstore.write: out of range") (fun () ->
      Blockstore.write s ~lba:max_int (Bytes.make 512 'x'));
  Alcotest.(check int) "nothing written" 0 (Blockstore.written_sectors s)

(* Never-written sectors are generated straight into the result, a
   128 KB buffer that goes to the major heap: nothing on the minor
   heap, not one boxed [Int64] per word.  Bytecode boxes everything. *)
let test_blockstore_read_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let s = Blockstore.create ~seed:7 ~sectors:2048 ~sector_size:512 in
  let before = Gc.minor_words () in
  let b = Blockstore.read s ~lba:100 ~count:256 in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity b);
  Alcotest.(check (float 0.)) "minor words" 0. words

(* The splitmix64 content of a never-written sector, written out
   word by word with checked stores: a reference for the generator's
   unchecked stores, whatever the sector size. *)
let reference_sector ~seed ~sector_size lba =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let key = Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (lba + 1))) in
  let b = Bytes.create sector_size in
  for w = 0 to (sector_size / 8) - 1 do
    Bytes.set_int64_le b (w * 8) (mix (Int64.add key (Int64.of_int w)))
  done;
  b

(* [read_into] at any [pos] writes exactly the concatenated [sector]s
   and no byte around them, over ranges that mix written and
   never-written sectors, for sector sizes from one word up. *)
let prop_blockstore_read_into =
  QCheck.Test.make ~name:"blockstore read_into = its sectors, in place" ~count:300
    QCheck.(
      pair
        (quad (oneofl [ 8; 24; 40; 512 ]) (int_bound 30) (int_range 0 6) (int_bound 40))
        (pair (small_list (int_bound 39)) (int_bound 9)))
    (fun ((sector_size, lba, count, pos), (writes, slack)) ->
      let seed = 13 in
      let s = Blockstore.create ~seed ~sectors:40 ~sector_size in
      List.iteri
        (fun i w -> Blockstore.write s ~lba:w (Bytes.make sector_size (Char.chr (65 + (i mod 26)))))
        writes;
      let len = count * sector_size in
      let buf = Bytes.make (pos + len + slack) '#' in
      Blockstore.read_into s ~lba ~count buf pos;
      let expected = Bytes.concat Bytes.empty (List.init count (fun i -> Blockstore.sector s (lba + i))) in
      let untouched off n = Bytes.equal (Bytes.sub buf off n) (Bytes.make n '#') in
      let generated_ok =
        List.for_all
          (fun i ->
            List.mem (lba + i) writes
            || Bytes.equal (Blockstore.sector s (lba + i)) (reference_sector ~seed ~sector_size (lba + i)))
          (List.init count Fun.id)
      in
      Bytes.equal expected (Bytes.sub buf pos len)
      && untouched 0 pos && untouched (pos + len) slack && generated_ok)

(* Every refusal comes from one overflow-safe check, before a byte of
   the destination is written. *)
let test_blockstore_read_into_refusals () =
  let s = Blockstore.create ~seed:7 ~sectors:128 ~sector_size:512 in
  let buf = Bytes.make 1024 '#' in
  let refused name f =
    Alcotest.check_raises name (Invalid_argument "Blockstore.read") f;
    Alcotest.(check bool) (name ^ ": nothing written") true (Bytes.equal buf (Bytes.make 1024 '#'))
  in
  refused "pos max_int" (fun () -> Blockstore.read_into s ~lba:0 ~count:1 buf max_int);
  refused "count max_int" (fun () -> Blockstore.read_into s ~lba:1 ~count:max_int buf 0);
  refused "one byte short" (fun () -> Blockstore.read_into s ~lba:0 ~count:2 buf 1);
  refused "negative pos" (fun () -> Blockstore.read_into s ~lba:0 ~count:1 buf (-1));
  refused "negative count" (fun () -> Blockstore.read_into s ~lba:0 ~count:(-1) buf 0);
  refused "past the device" (fun () -> Blockstore.read_into s ~lba:127 ~count:2 buf 0);
  refused "lba max_int" (fun () -> Blockstore.read_into s ~lba:max_int ~count:1 buf 0);
  Blockstore.read_into s ~lba:0 ~count:0 buf 1024;
  Alcotest.(check bool) "an empty read at the end writes nothing" true
    (Bytes.equal buf (Bytes.make 1024 '#'))

(* --- devices, driven through raw bus I/O --- *)

let test_audio_underruns () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let audio =
    Audio_dev.create ~kernel ~bus ~base:0x380 ~irq:5 ~byte_rate:100_000 ()
  in
  (* Feed 4 KB of samples and start playback: at 100 KB/s the FIFO
     drains in ~40 ms and the device underruns afterwards. *)
  for _ = 1 to 1024 do
    Bus.write bus 0x382 0xABCD
  done;
  Bus.write bus 0x381 1;
  Engine.run engine ~until:500_000;
  Alcotest.(check int) "all samples played" 4096 (Audio_dev.bytes_played audio);
  Alcotest.(check bool) "underruns counted after starvation" true (Audio_dev.underruns audio > 0)

let test_printer_prints_in_order () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let printer = Printer_dev.create ~kernel ~bus ~base:0x390 ~irq:6 () in
  Bus.write bus 0x391 1;
  String.iter (fun c -> Bus.write bus 0x392 (Char.code c)) "hello paper";
  Engine.run engine ~until:2_000_000;
  Alcotest.(check string) "bytes printed in order" "hello paper" (Printer_dev.printed printer)

let test_cd_gap_ruins_disc () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let cd = Cd_dev.create ~kernel ~bus ~base:0x3A0 ~irq:7 ~gap_timeout:100_000 () in
  Bus.write bus 0x3A1 0x01 (* start session *);
  (match Cd_dev.disc cd with
  | Cd_dev.In_session -> ()
  | _ -> Alcotest.fail "session should be open");
  (* ... and then the driver dies: no blocks arrive for > gap. *)
  Engine.run engine ~until:500_000;
  match Cd_dev.disc cd with
  | Cd_dev.Ruined -> ()
  | _ -> Alcotest.fail "unattended session must ruin the disc"

let test_nic_wedges_on_garbage_and_master_reset () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) () in
  let nic =
    Nic8139.create ~kernel ~bus ~base:0x300 ~irq:11 ~link ~side:Link.A ~mac:1
      ~rng:(Rng.create ~seed:1) ~wedge_prob:1.0 ()
  in
  (* Garbage CMD bits wedge the chip (wedge_prob = 1). *)
  Bus.write bus 0x301 0xE0;
  Alcotest.(check bool) "nic wedged" true (Nic.wedged nic);
  (* A wedged card ignores the software reset... *)
  Bus.write bus 0x301 0x10;
  Alcotest.(check bool) "still wedged after reset" true (Nic.wedged nic);
  Alcotest.(check int) "registers read all-ones" 0xFFFF_FFFF (Bus.read bus 0x300);
  (* ... only the out-of-band BIOS reset clears it (Sec. 7.2). *)
  Nic.bios_reset nic;
  Alcotest.(check bool) "bios reset clears the wedge" false (Nic.wedged nic)

(* --- NICs, driven only through raw bus I/O --- *)

let rd = Bus.read
let wr = Bus.write

(* DP8390 registers at base 0x300. *)
let dp_id = 0x300
let dp_cmd = 0x301
let dp_config = 0x302
let dp_isr = 0x303
let dp_data = 0x304
let dp_txgo = 0x305
let dp_rxlen = 0x306
let dp_rxdone = 0x307
let nic_mac = 0x0200_0000_0001
let other_mac = 0x0200_0000_0002
let broadcast = 0xFFFF_FFFF_FFFF

(* A DP8390 on side A of a link; returns what side B receives. *)
let make_dp ?wedge_prob ?metrics () =
  let engine, kernel = make_kernel ?metrics () in
  let bus = Bus.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) () in
  let _nic =
    Nic8390.create ~kernel ~bus ~base:0x300 ~irq:11 ~link ~side:Link.A ~mac:nic_mac
      ~rng:(Rng.create ~seed:1) ?wedge_prob ()
  in
  let wire = ref [] in
  Link.attach link Link.B (fun frame -> wire := Bytes.to_string frame :: !wire);
  (engine, bus, link, wire)

(* A frame addressed to [dst] (big-endian in its first six bytes),
   padded to [len] bytes with [fill]. *)
let frame ~dst ?(fill = 'x') len =
  let b = Bytes.make len fill in
  for i = 0 to 5 do
    Bytes.set b i (Char.chr ((dst lsr (8 * (5 - i))) land 0xFF))
  done;
  b

(* Lengths of the frames the DP8390 holds, consumed with RXDONE. *)
let dp_drain bus =
  let rec go acc =
    match rd bus dp_rxlen with
    | 0 -> List.rev acc
    | len ->
        wr bus dp_rxdone 0;
        go (len :: acc)
  in
  go []

let test_dp8390_tx_staging () =
  let engine, bus, _, wire = make_dp () in
  wr bus dp_cmd 0x08;
  List.iter (wr bus dp_data) [ 0x64636261; 0x68676665; 0x6C6B6A69 ];
  wr bus dp_txgo 10;
  Engine.run engine;
  Alcotest.(check (list string)) "the first 10 staged bytes on the wire" [ "abcdefghij" ] !wire;
  Alcotest.(check int) "TX_OK raised, no ERR" 0x4 (rd bus dp_isr);
  (* The staging buffer was consumed by the transmit. *)
  wr bus dp_txgo 4;
  Alcotest.(check int) "TXGO beyond the staged bytes sets ERR" 0xC (rd bus dp_isr)

let test_dp8390_rx_filter () =
  let engine, bus, link, _ = make_dp () in
  wr bus dp_cmd 0x04;
  Link.send link Link.B (frame ~dst:nic_mac 20);
  Link.send link Link.B (frame ~dst:other_mac 30);
  Link.send link Link.B (frame ~dst:broadcast 40);
  Engine.run engine;
  Alcotest.(check int) "RX_OK raised" 0x1 (rd bus dp_isr);
  Alcotest.(check int) "first word of the head frame" 0x00_00_00_02 (rd bus dp_data);
  Alcotest.(check (list int)) "own and broadcast frames kept, other MAC filtered" [ 20; 40 ]
    (dp_drain bus);
  Alcotest.(check int) "DATA floats with no frame" 0xFFFF_FFFF (rd bus dp_data);
  wr bus dp_config 1;
  Link.send link Link.B (frame ~dst:other_mac 30);
  Engine.run engine;
  Alcotest.(check (list int)) "promiscuous mode accepts other MACs" [ 30 ] (dp_drain bus)

let test_dp8390_rx_queue_bounded () =
  let metrics = Resilix_obs.Metrics.create () in
  let engine, bus, link, _ = make_dp ~metrics () in
  wr bus dp_cmd 0x04;
  for _ = 1 to 70 do
    Link.send link Link.B (frame ~dst:nic_mac 60)
  done;
  Engine.run engine;
  Alcotest.(check int) "queue holds 64 frames, the rest dropped" 64 (List.length (dp_drain bus));
  Alcotest.(check int) "the dropped frames are counted" 6
    (Resilix_obs.Metrics.counter_value (Resilix_obs.Metrics.snapshot metrics) "hw.nic8390.rx_overflow")

let test_dp8390_rx_ok_after_rxdone () =
  let engine, bus, link, _ = make_dp () in
  wr bus dp_cmd 0x04;
  Link.send link Link.B (frame ~dst:nic_mac 20);
  Link.send link Link.B (frame ~dst:nic_mac 24);
  Engine.run engine;
  Alcotest.(check int) "RX_OK for the first frame" 0x1 (rd bus dp_isr);
  wr bus dp_isr 0x1;
  Alcotest.(check int) "acked" 0 (rd bus dp_isr);
  wr bus dp_rxdone 0;
  Alcotest.(check int) "RX_OK again: a frame remains" 0x1 (rd bus dp_isr);
  Alcotest.(check int) "the second frame is now the head" 24 (rd bus dp_rxlen);
  wr bus dp_isr 0x1;
  wr bus dp_rxdone 0;
  Alcotest.(check int) "no RX_OK once the queue is empty" 0 (rd bus dp_isr)

let test_dp8390_reset_window () =
  let engine, bus, _, _ = make_dp () in
  wr bus dp_config 1;
  wr bus dp_cmd 0x10;
  Alcotest.(check int) "CMD reads reset" 0x10 (rd bus dp_cmd);
  Alcotest.(check int) "reset clears promiscuous mode" 0 (rd bus dp_config);
  wr bus dp_cmd 0x0C;
  let seen = ref [] in
  let probe at =
    ignore (Engine.schedule engine ~after:at (fun () -> seen := (at, rd bus dp_cmd) :: !seen))
  in
  probe 149_999;
  probe 150_000;
  Engine.run engine;
  Alcotest.(check (list (pair int int)))
    "resetting for 150 ms; the enable written meanwhile was ignored"
    [ (149_999, 0x10); (150_000, 0) ]
    (List.rev !seen);
  wr bus dp_cmd 0x0C;
  Alcotest.(check int) "enables take after the window" 0x0C (rd bus dp_cmd)

let test_dp8390_err_without_wedge () =
  let _, bus, _, _ = make_dp ~wedge_prob:0.0 () in
  wr bus dp_cmd 0xE0;
  Alcotest.(check int) "junk CMD bits set ERR" 0x8 (rd bus dp_isr);
  wr bus dp_isr 0x8;
  wr bus dp_id 1;
  Alcotest.(check int) "writing the ID register sets ERR" 0x8 (rd bus dp_isr);
  Alcotest.(check int) "the card still answers" 0x8390 (rd bus dp_id);
  wr bus dp_cmd 0x0C;
  Alcotest.(check int) "and still takes programming" 0x0C (rd bus dp_cmd)

(* Each out-of-spec access draws the wedge once from the NIC's RNG; a
   wedged card ignores writes, so it draws nothing until the BIOS
   reset.  A mirror of the NIC's RNG predicts every outcome. *)
let test_nic_wedge_draw_per_fault () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) () in
  let nic =
    Nic8390.create ~kernel ~bus ~base:0x300 ~irq:11 ~link ~side:Link.A ~mac:nic_mac
      ~rng:(Rng.create ~seed:5) ~wedge_prob:0.5 ()
  in
  let mirror = Rng.create ~seed:5 in
  let wedges = ref 0 in
  for i = 1 to 20 do
    wr bus dp_id 1;
    let expect = Rng.bool mirror 0.5 in
    Alcotest.(check bool) (Printf.sprintf "fault %d wedges as drawn" i) expect (Nic.wedged nic);
    if expect then begin
      incr wedges;
      wr bus dp_id 1;
      wr bus dp_cmd 0xE0;
      Nic.bios_reset nic
    end
  done;
  Alcotest.(check bool) "both outcomes drawn" true (!wedges > 0 && !wedges < 20)

(* A bare process that maps a 64-byte receive buffer at 0x200 through
   the IOMMU, as a driver would. *)
let all_priv =
  {
    Privilege.none with
    Privilege.ipc_to = Privilege.All;
    kcalls = Privilege.All;
    io_ports = [ (0, 0xFFFF) ];
    irqs = List.init 32 Fun.id;
  }

let spawn_dma_owner ?(len = 64) ?(mem_kb = 64) kernel handle =
  Kernel.register_program kernel "drv" (fun () ->
      (match Api.grant_create ~for_:Wellknown.hardware ~base:0x200 ~len ~access:Sysif.Read_write with
      | Ok g -> ( match Api.iommu_map g with Ok h -> handle := Some h | Error _ -> ())
      | Error _ -> ());
      Api.sleep 1_000_000_000);
  match Kernel.spawn_dynamic kernel ~name:"drv" ~program:"drv" ~args:[] ~priv:all_priv ~mem_kb with
  | Ok ep -> ep
  | Error _ -> Alcotest.fail "spawn failed"

let test_rtl8139_rx_enable_pumps () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let link = Link.create ~engine ~rng:(Rng.create ~seed:1) () in
  let _nic =
    Nic8139.create ~kernel ~bus ~base:0x300 ~irq:11 ~link ~side:Link.A ~mac:nic_mac
      ~rng:(Rng.create ~seed:1) ()
  in
  let handle = ref None in
  let owner = spawn_dma_owner kernel handle in
  Engine.run engine ~until:10_000;
  let h = match !handle with Some h -> h | None -> Alcotest.fail "no DMA handle" in
  (* RX on, but no buffer armed: the frame waits in the queue. *)
  wr bus 0x301 0x04;
  Link.send link Link.B (frame ~dst:nic_mac ~fill:'r' 32);
  Engine.run engine ~until:20_000;
  wr bus 0x301 0x00;
  wr bus 0x308 64;
  wr bus 0x307 h;
  Alcotest.(check int) "not delivered while RX is off" 0 (rd bus 0x303);
  wr bus 0x301 0x04;
  Alcotest.(check int) "re-enabling RX delivers it: RX_OK" 0x1 (rd bus 0x303);
  Alcotest.(check int) "RXLEN" 32 (rd bus 0x309);
  match Kernel.proc_memory kernel owner with
  | None -> Alcotest.fail "owner died"
  | Some mem ->
      Alcotest.(check string) "frame DMAed into the buffer"
        (Bytes.to_string (frame ~dst:nic_mac ~fill:'r' 32))
        (Bytes.to_string (Memory.read mem ~addr:0x200 ~len:32))

(* A disk read is generated straight into the driver's buffer by the
   DMA fill op.  Staging it in a buffer of its own (128 KB, 16,386
   words on the major heap) fails this; the completion's closure and
   DMA op are the few minor words.  The first read allocates the
   driver's address space, so the second one is measured.  Bytecode
   boxes everything. *)
let test_disk_read_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let store = Blockstore.create ~seed:7 ~sectors:2048 ~sector_size:512 in
  let _disk = Disk.create ~kernel ~bus ~base:0x1F0 ~irq:13 ~store () in
  let handle = ref None in
  let owner = spawn_dma_owner ~len:(256 * 512) ~mem_kb:192 kernel handle in
  Engine.run engine ~until:10_000;
  let h = match !handle with Some h -> h | None -> Alcotest.fail "no DMA handle" in
  let read_256 lba =
    wr bus 0x1F6 0x1;
    wr bus 0x1F1 lba;
    wr bus 0x1F2 256;
    wr bus 0x1F3 h;
    wr bus 0x1F4 0x20;
    Alcotest.(check int) "busy" 1 (rd bus 0x1F5)
  in
  read_256 0;
  Engine.run engine ~until:100_000;
  read_256 1000;
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  Engine.run engine ~until:200_000;
  let minor', promoted', major' = Gc.counters () in
  Alcotest.(check int) "done" 0x1 (rd bus 0x1F6);
  Alcotest.(check (float 0.)) "major words" 0. (major' -. promoted' -. (major -. promoted));
  let words = minor' -. minor in
  if words > 16. then Alcotest.failf "%.0f minor words (at most 16)" words;
  match Kernel.proc_memory kernel owner with
  | None -> Alcotest.fail "owner died"
  | Some mem ->
      Alcotest.(check bool) "sectors 1000-1255 DMAed into the buffer" true
        (Bytes.equal (Blockstore.read store ~lba:1000 ~count:256)
           (Memory.read mem ~addr:0x200 ~len:(256 * 512)))

(* The controller latches LBA, COUNT and the DMA handle when a read
   starts: rewriting one of them mid-transfer (LBA past the end of the
   disk, one sector, a handle that maps nothing) moves nothing. *)
let test_disk_latches_range () =
  let engine, kernel = make_kernel () in
  let bus = Bus.create () in
  let store = Blockstore.create ~seed:7 ~sectors:2048 ~sector_size:512 in
  let _disk = Disk.create ~kernel ~bus ~base:0x1F0 ~irq:13 ~store () in
  let handle = ref None in
  let owner = spawn_dma_owner ~len:1024 kernel handle in
  Engine.run engine ~until:10_000;
  let h = match !handle with Some h -> h | None -> Alcotest.fail "no DMA handle" in
  List.iteri
    (fun i (reg, v) ->
      let lba = 10 * i in
      wr bus 0x1F6 0x1;
      wr bus 0x1F1 lba;
      wr bus 0x1F2 2;
      wr bus 0x1F3 h;
      wr bus 0x1F4 0x20;
      Alcotest.(check int) "busy" 1 (rd bus 0x1F5);
      wr bus reg v;
      Engine.run engine ~until:(Engine.now engine + 100_000);
      Alcotest.(check int) (Printf.sprintf "register %#x: done, no error" reg) 0x1 (rd bus 0x1F6);
      match Kernel.proc_memory kernel owner with
      | None -> Alcotest.fail "owner died"
      | Some mem ->
          Alcotest.(check bool)
            (Printf.sprintf "register %#x: sectors %d-%d DMAed" reg lba (lba + 1))
            true
            (Bytes.equal (Blockstore.read store ~lba ~count:2) (Memory.read mem ~addr:0x200 ~len:1024)))
    [ (0x1F1, 2047); (0x1F2, 1); (0x1F3, h + 1000) ]

let tests =
  [
    Alcotest.test_case "bus routing" `Quick test_bus_routing;
    Alcotest.test_case "bus unclaimed ports float" `Quick test_bus_unclaimed_floats;
    Alcotest.test_case "bus overlap rejected" `Quick test_bus_overlap_rejected;
    Alcotest.test_case "link timing" `Quick test_link_timing;
    Alcotest.test_case "link serializes bursts" `Quick test_link_serializes_bursts;
    Alcotest.test_case "link drops" `Quick test_link_drops;
    Alcotest.test_case "blockstore determinism" `Quick test_blockstore_determinism;
    Alcotest.test_case "blockstore writes persist" `Quick test_blockstore_write_persists;
    Alcotest.test_case "blockstore content pinned" `Quick test_blockstore_content_pinned;
    Alcotest.test_case "blockstore read = its sectors" `Quick test_blockstore_read_is_sectors;
    Alcotest.test_case "blockstore refuses bad ranges" `Quick test_blockstore_bad_ranges;
    Alcotest.test_case "blockstore read allocation" `Quick test_blockstore_read_allocation;
    Alcotest.test_case "blockstore read_into refusals" `Quick test_blockstore_read_into_refusals;
    QCheck_alcotest.to_alcotest prop_blockstore_reads_stable;
    QCheck_alcotest.to_alcotest prop_blockstore_read_into;
    Alcotest.test_case "audio underruns counted" `Quick test_audio_underruns;
    Alcotest.test_case "printer prints in order" `Quick test_printer_prints_in_order;
    Alcotest.test_case "cd burn gap ruins disc" `Quick test_cd_gap_ruins_disc;
    Alcotest.test_case "nic wedge + bios reset" `Quick test_nic_wedges_on_garbage_and_master_reset;
    Alcotest.test_case "dp8390 tx staging to the wire" `Quick test_dp8390_tx_staging;
    Alcotest.test_case "dp8390 rx mac filter" `Quick test_dp8390_rx_filter;
    Alcotest.test_case "dp8390 rx queue bounded at 64" `Quick test_dp8390_rx_queue_bounded;
    Alcotest.test_case "dp8390 rx_ok again after rxdone" `Quick test_dp8390_rx_ok_after_rxdone;
    Alcotest.test_case "dp8390 reset window" `Quick test_dp8390_reset_window;
    Alcotest.test_case "dp8390 err without wedge" `Quick test_dp8390_err_without_wedge;
    Alcotest.test_case "nic wedge draw per fault" `Quick test_nic_wedge_draw_per_fault;
    Alcotest.test_case "rtl8139 rx enable delivers queued frame" `Quick test_rtl8139_rx_enable_pumps;
    Alcotest.test_case "disk read allocation" `Quick test_disk_read_allocation;
    Alcotest.test_case "disk latches its range at command time" `Quick test_disk_latches_range;
  ]
