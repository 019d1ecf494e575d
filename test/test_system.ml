(* Full-system integration tests: boot the complete simulated machine
   (Fig. 1 architecture) and exercise the recovery schemes of Sec. 6
   end to end. *)

module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Engine = Resilix_sim.Engine
module Reincarnation = Resilix_core.Reincarnation
module Status = Resilix_proto.Status
module Peer = Resilix_net.Peer
module Filegen = Resilix_net.Filegen
module Wget = Resilix_apps.Wget
module Dd = Resilix_apps.Dd
module Trace = Resilix_sim.Trace
module Fnv = Resilix_checksum.Fnv

let file_seed = 1234

let boot_with_net ?(file_mb = 4) () =
  let size = file_mb * 1024 * 1024 in
  let opts =
    {
      System.default_opts with
      System.peer_files = [ ("big.bin", (size, file_seed)) ];
      fs_files = [ ("data.bin", 2 * 1024 * 1024) ];
      disk_mb = 16;
    }
  in
  let t = System.boot ~opts () in
  (t, size)

let test_boot_and_services () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_rtl8139 (); System.spec_sata () ];
  Alcotest.(check bool) "rtl8139 up" true (Reincarnation.service_up t.System.rs "eth.rtl8139");
  Alcotest.(check bool) "sata up" true (Reincarnation.service_up t.System.rs "blk.sata")

let test_wget_clean () =
  let t, size = boot_with_net () in
  System.start_services t [ System.spec_rtl8139 () ];
  let result = Wget.fresh_result () in
  ignore
    (System.spawn_app t ~name:"wget"
       (Wget.make ~server:Hwmap.rtl_peer_ip ~port:80 ~file:"big.bin" result));
  let finished = System.run_until t ~timeout:120_000_000 (fun () -> result.Wget.finished) in
  Alcotest.(check bool) "transfer finished" true finished;
  Alcotest.(check bool) "transfer ok" true result.Wget.ok;
  Alcotest.(check int) "all bytes" size result.Wget.bytes;
  Alcotest.(check string) "digest matches the served file"
    (Filegen.digest ~seed:file_seed ~size)
    result.Wget.digest

let test_wget_with_driver_kills () =
  let t, size = boot_with_net () in
  System.start_services t [ System.spec_rtl8139 () ];
  let result = Wget.fresh_result () in
  ignore
    (System.spawn_app t ~name:"wget"
       (Wget.make ~server:Hwmap.rtl_peer_ip ~port:80 ~file:"big.bin" result));
  (* Kill the Ethernet driver twice mid-transfer (Sec. 7.1). *)
  ignore
    (Engine.schedule t.System.engine ~after:100_000 (fun () ->
         ignore (System.kill_service_once t ~target:"eth.rtl8139")));
  ignore
    (Engine.schedule t.System.engine ~after:450_000 (fun () ->
         ignore (System.kill_service_once t ~target:"eth.rtl8139")));
  let finished = System.run_until t ~timeout:300_000_000 (fun () -> result.Wget.finished) in
  Alcotest.(check bool) "transfer finished despite kills" true finished;
  Alcotest.(check bool) "transfer ok" true result.Wget.ok;
  Alcotest.(check int) "no data lost or duplicated" size result.Wget.bytes;
  Alcotest.(check string) "data integrity preserved (checksum comparison)"
    (Filegen.digest ~seed:file_seed ~size)
    result.Wget.digest;
  Alcotest.(check int) "driver was recovered twice" 2
    (Reincarnation.restarts_of t.System.rs "eth.rtl8139");
  Alcotest.(check bool) "driver reintegrated by INET" true
    (Resilix_net.Inet.driver_generation t.System.inet >= 3)

let run_dd t result =
  ignore (System.spawn_app t ~name:"dd" (Dd.make ~path:"/data.bin" result));
  System.run_until t ~timeout:300_000_000 (fun () -> result.Dd.finished)

let test_dd_clean () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_sata () ];
  let result = Dd.fresh_result () in
  let finished = run_dd t result in
  Alcotest.(check bool) "dd finished" true finished;
  Alcotest.(check bool) "dd ok" true result.Dd.ok;
  Alcotest.(check int) "all bytes read" (2 * 1024 * 1024) result.Dd.bytes;
  Alcotest.(check bool) "digest nonempty" true (String.length result.Dd.digest > 0)

let test_dd_with_driver_kills () =
  (* Run the same read twice — once clean, once with two driver kills.
     The checksums must agree (the paper's SHA-1 comparison). *)
  let clean = Dd.fresh_result () in
  let t1, _ = boot_with_net () in
  System.start_services t1 [ System.spec_sata () ];
  ignore (run_dd t1 clean);
  let crashed = Dd.fresh_result () in
  let t2, _ = boot_with_net () in
  System.start_services t2 [ System.spec_sata () ];
  ignore
    (Engine.schedule t2.System.engine ~after:20_000 (fun () ->
         ignore (System.kill_service_once t2 ~target:"blk.sata")));
  ignore
    (Engine.schedule t2.System.engine ~after:60_000 (fun () ->
         ignore (System.kill_service_once t2 ~target:"blk.sata")));
  let finished = run_dd t2 crashed in
  Alcotest.(check bool) "dd finished despite kills" true finished;
  Alcotest.(check bool) "dd ok" true crashed.Dd.ok;
  Alcotest.(check int) "same byte count" clean.Dd.bytes crashed.Dd.bytes;
  Alcotest.(check string) "identical checksum across crashes" clean.Dd.digest crashed.Dd.digest;
  Alcotest.(check int) "disk driver recovered twice" 2
    (Reincarnation.restarts_of t2.System.rs "blk.sata");
  Alcotest.(check bool) "pending I/O was reissued" true
    (Resilix_fs.Mfs.reissued_ios t2.System.mfs >= 1)

let test_file_write_read_roundtrip () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_sata () ];
  let done_flag = ref false in
  let read_back = ref "" in
  ignore
    (System.spawn_app t ~name:"editor" (fun () ->
         let module Fslib = Resilix_apps.Fslib in
         (match Fslib.open_file "/notes.txt" ~wr:true ~create:true with
         | Ok fd ->
             ignore (Fslib.write fd (Bytes.of_string "failure resilience for device drivers"));
             ignore (Fslib.close fd)
         | Error _ -> ());
         (match Fslib.open_file "/notes.txt" with
         | Ok fd -> (
             match Fslib.read fd ~len:100 with
             | Ok data ->
                 read_back := Bytes.to_string data;
                 ignore (Fslib.close fd)
             | Error _ -> ())
         | Error _ -> ());
         done_flag := true));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> !done_flag) in
  Alcotest.(check bool) "roundtrip finished" true finished;
  Alcotest.(check string) "file contents survive" "failure resilience for device drivers"
    !read_back

(* Inbound TCP: an in-system echo server behind INET's listen/accept,
   exercised by a TCP client at the remote peer. *)
let test_inbound_tcp_accept () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_rtl8139 () ];
  let module Sockets = Resilix_apps.Sockets in
  let module Message = Resilix_proto.Message in
  let serving = ref false in
  ignore
    (System.spawn_app t ~name:"echo-server" (fun () ->
         match Sockets.socket Message.Tcp with
         | Error _ -> ()
         | Ok lsock ->
             ignore (Sockets.listen lsock ~port:2000);
             serving := true;
             let rec accept_loop () =
               match Sockets.accept lsock with
               | Error _ -> ()
               | Ok sock ->
                   let rec serve () =
                     match Sockets.recv sock ~len:4096 with
                     | Ok data when Bytes.length data > 0 ->
                         ignore (Sockets.send_all sock (Bytes.uppercase_ascii data));
                         serve ()
                     | _ -> ignore (Sockets.close sock)
                   in
                   serve ();
                   accept_loop ()
             in
             accept_loop ()));
  ignore (System.run_until t ~timeout:10_000_000 (fun () -> !serving));
  let client =
    Peer.start_tcp_client t.System.rtl_peer ~dst_ip:Hwmap.local_ip ~dst_mac:Hwmap.rtl8139_mac
      ~dst_port:2000 ~payload:"shout this back"
  in
  let got_reply =
    System.run_until t ~timeout:60_000_000 (fun () ->
        String.length client.Peer.response >= String.length "shout this back")
  in
  Alcotest.(check bool) "client connected" true client.Peer.connected;
  Alcotest.(check bool) "reply received" true got_reply;
  Alcotest.(check string) "echo uppercased" "SHOUT THIS BACK" client.Peer.response

(* A second block device: raw sector I/O against the floppy driver. *)
let test_floppy_raw_io () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_floppy () ];
  let module Api = Resilix_kernel.Sysif.Api in
  let module Sysif = Resilix_kernel.Sysif in
  let module Message = Resilix_proto.Message in
  let module Memory = Resilix_kernel.Memory in
  let module Privilege = Resilix_proto.Privilege in
  let ok = ref false in
  ignore
    (System.spawn_app t ~name:"rawio"
       ~priv:{ Resilix_proto.Privilege.app with Privilege.ipc_to = Privilege.All }
       (fun () ->
         match Resilix_core.Service.lookup "blk.floppy" with
         | Error _ -> ()
         | Ok (drv, _) -> (
             ignore (Api.sendrec drv (Message.Dev_open { minor = 0 }));
             let mem = Api.memory () in
             Memory.write mem ~addr:0x2000 (Bytes.make 512 'F');
             match Api.grant_create ~for_:drv ~base:0x2000 ~len:512 ~access:Sysif.Read_only with
             | Error _ -> ()
             | Ok g -> (
                 (match
                    Api.sendrec drv (Message.Dev_write { minor = 0; pos = 0; grant = g; len = 512 })
                  with
                 | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok 512 }; _ }) -> ()
                 | _ -> failwith "floppy write failed");
                 ignore (Api.grant_revoke g);
                 match
                   Api.grant_create ~for_:drv ~base:0x3000 ~len:512 ~access:Sysif.Write_only
                 with
                 | Error _ -> ()
                 | Ok g2 -> (
                     match
                       Api.sendrec drv
                         (Message.Dev_read { minor = 0; pos = 0; grant = g2; len = 512 })
                     with
                     | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok 512 }; _ }) ->
                         let back = Memory.read mem ~addr:0x3000 ~len:512 in
                         ok := Bytes.equal back (Bytes.make 512 'F')
                     | _ -> failwith "floppy read failed")))));
  ignore (System.run_until t ~timeout:60_000_000 (fun () -> !ok));
  Alcotest.(check bool) "floppy write/read roundtrip" true !ok

(* The RAM disk is Fig. 9's one driver that no experiment runs: raw
   sector I/O against it, its range and minor checks (including
   positions whose end overflows), and the driver still serving
   afterwards. *)
let test_ramdisk_raw_io () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_ramdisk () ];
  let module Api = Resilix_kernel.Sysif.Api in
  let module Sysif = Resilix_kernel.Sysif in
  let module Message = Resilix_proto.Message in
  let module Memory = Resilix_kernel.Memory in
  let module Privilege = Resilix_proto.Privilege in
  let module Errno = Resilix_proto.Errno in
  let results = ref [] and data_ok = ref false and drv_ep = ref None in
  let finished = ref false in
  ignore
    (System.spawn_app t ~name:"rawio"
       ~priv:{ Privilege.app with Privilege.ipc_to = Privilege.All }
       (fun () ->
         (match Resilix_core.Service.lookup "blk.ram" with
         | Error _ -> ()
         | Ok (drv, _) ->
             drv_ep := Some drv;
             let mem = Api.memory () in
             let pattern = Bytes.init 512 (fun i -> Char.chr (i land 0xFF)) in
             Memory.write mem ~addr:0x2000 pattern;
             let request label access make =
               match Api.grant_create ~for_:drv ~base:0x2000 ~len:512 ~access with
               | Error _ -> failwith "grant_create"
               | Ok grant ->
                   let r =
                     match Api.sendrec drv (make grant) with
                     | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
                     | _ -> Error Errno.E_io
                   in
                   ignore (Api.grant_revoke grant);
                   results := (label, r) :: !results
             in
             let write ~minor ~pos grant = Message.Dev_write { minor; pos; grant; len = 512 } in
             let read ~minor ~pos grant = Message.Dev_read { minor; pos; grant; len = 512 } in
             request "write 4096" Sysif.Read_only (write ~minor:0 ~pos:4096);
             Memory.write mem ~addr:0x2000 (Bytes.make 512 '\000');
             request "read 4096" Sysif.Write_only (read ~minor:0 ~pos:4096);
             data_ok := Bytes.equal (Memory.read mem ~addr:0x2000 ~len:512) pattern;
             request "read past the end" Sysif.Write_only (read ~minor:0 ~pos:(512 * 1024));
             request "read at max_int" Sysif.Write_only (read ~minor:0 ~pos:max_int);
             request "write ending past max_int" Sysif.Read_only
               (write ~minor:0 ~pos:(max_int - 100));
             request "read minor 1" Sysif.Write_only (read ~minor:1 ~pos:0));
         finished := true));
  ignore (System.run_until t ~timeout:60_000_000 (fun () -> !finished));
  let reply = Alcotest.(result int (testable Errno.pp Errno.equal)) in
  Alcotest.(check (list (pair string reply)))
    "ramdisk replies"
    [
      ("write 4096", Ok 512);
      ("read 4096", Ok 512);
      ("read past the end", Error Errno.E_range);
      ("read at max_int", Error Errno.E_range);
      ("write ending past max_int", Error Errno.E_range);
      ("read minor 1", Error Errno.E_nodev);
    ]
    (List.rev !results);
  Alcotest.(check bool) "read returns the written bytes" true !data_ok;
  Alcotest.(check bool) "ramdisk still up" true (Reincarnation.service_up t.System.rs "blk.ram");
  Alcotest.(check bool) "same incarnation" true
    (match !drv_ep with
    | Some ep -> Resilix_kernel.Kernel.find_by_name t.System.kernel "blk.ram" = Some ep
    | None -> false)

(* Service utility lifecycle: duplicate up is EBUSY; down stops
   monitoring for good. *)
let test_service_down_and_duplicate_up () =
  let t, _ = boot_with_net () in
  System.start_services t [ System.spec_sata () ];
  let module Service = Resilix_core.Service in
  let module Errno = Resilix_proto.Errno in
  let dup = ref None and down = ref None in
  ignore
    (System.spawn_app t ~name:"admin" (fun () ->
         dup := Some (Service.up (System.spec_sata ()));
         down := Some (Service.down "blk.sata");
         (* Give RS a moment; the service must stay down. *)
         Resilix_kernel.Sysif.Api.sleep 2_000_000));
  System.run t ~until:(Engine.now t.System.engine + 5_000_000);
  (match !dup with
  | Some (Error Errno.E_busy) -> ()
  | _ -> Alcotest.fail "duplicate service up must be EBUSY");
  (match !down with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "service down failed");
  Alcotest.(check bool) "service stays down (no recovery)" false
    (Reincarnation.service_up t.System.rs "blk.sata");
  Alcotest.(check int) "no recovery event for a deliberate stop" 0
    (List.length (Resilix_obs.Span.spans t.System.spans))

(* [System.run_until] against the loop it replaced, one bare
   [Engine.step] at a time (no inline returns), on a booted machine
   with the DP8390 driver up: the predicate turns true in the middle of
   an application's yield burst, so the inline path must stop exactly
   where stepping does. *)
let test_run_until_mid_burst () =
  let outcome drive =
    let t, _ = boot_with_net ~file_mb:1 () in
    System.start_services t [ System.spec_dp8390 () ];
    let returns = ref 0 in
    ignore
      (System.spawn_app t ~name:"burst" (fun () ->
           for i = 1 to 2_000 do
             Resilix_kernel.Sysif.Api.yield ~cost:(1 + (i mod 3)) ();
             incr returns
           done));
    let ok = drive t (fun () -> !returns >= 1_234) in
    let engine = t.System.engine in
    (ok, Engine.now engine, Engine.pending engine, !returns)
  in
  let stepped t pred =
    let engine = t.System.engine in
    let deadline = Engine.now engine + 60_000_000 in
    let rec loop () =
      if pred () then true
      else if Engine.now engine >= deadline then false
      else if Engine.step engine then loop ()
      else pred ()
    in
    loop ()
  in
  let ok, clock, pending, returns = outcome (fun t pred -> System.run_until t pred) in
  let ok', clock', pending', returns' = outcome stepped in
  Alcotest.(check bool) "predicate reached" ok' ok;
  Alcotest.(check int) "same stopping clock" clock' clock;
  Alcotest.(check int) "same queue" pending' pending;
  Alcotest.(check int) "stopped on the predicate's return" 1_234 returns;
  Alcotest.(check int) "same returns" returns' returns

(* The driver trace golden: a short run through all six VM drivers (a
   request to each, one SIGKILL and recovery each, one injected fault
   in each NIC).  Every rendered trace event and every observability
   line (which carries the kernel's per-call counters) is folded into
   one FNV digest, and the exit statuses are listed in full.  The
   values were recorded before the drivers shared one driver-VM
   runtime: a change here is a change in what a driver does — its
   kernel-call order, the registers its programs run with, or a panic
   text.  [f.bin] is 4 MB so that wget is still downloading when the
   RTL8139 is killed at 400 ms. *)
let driver_tour ~seed ~inet_driver specs workload =
  let opts =
    {
      System.default_opts with
      System.seed;
      inet_driver;
      disk_mb = 8;
      peer_files = [ ("f.bin", (4_194_304, file_seed)) ];
      fs_files = [ ("data.bin", 262_144) ];
    }
  in
  let t = System.boot ~opts () in
  System.start_services t specs;
  let at after f = ignore (Engine.schedule t.System.engine ~after f) in
  let kill target () = ignore (System.kill_service_once t ~target) in
  let inject target () =
    let applied = System.inject_fault t ~target (Resilix_vm.Fault.random_type t.System.rng) in
    Alcotest.(check bool) ("fault applied to " ^ target) true (Option.is_some applied)
  in
  let app name body = ignore (System.spawn_app t ~name body) in
  workload t ~at ~kill ~inject ~app;
  System.run t ~until:(Engine.now t.System.engine + 3_000_000);
  let events = Trace.events t.System.trace in
  let lines = List.map (Format.asprintf "%a" Trace.pp_event) events @ System.obs_lines t in
  let digest = List.fold_left Fnv.update_string Fnv.start lines in
  let exits =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.payload with
        | Resilix_obs.Event.Exit { name; status; _ } ->
            Some
              (match status with
              | Status.Exited code -> Printf.sprintf "%s: exited %d" name code
              | Status.Panicked msg -> Printf.sprintf "%s: panicked: %s" name msg
              | Status.Killed signal ->
                  name ^ ": killed by " ^ Resilix_proto.Signal.to_string signal)
        | _ -> None)
      events
  in
  (Fnv.to_hex digest, exits)

let test_driver_trace_pinned () =
  let module Mp3 = Resilix_apps.Mp3_player in
  let module Lpd = Resilix_apps.Lpd in
  let module Cdburn = Resilix_apps.Cdburn in
  let specs =
    System.[ spec_rtl8139 (); spec_sata (); spec_audio (); spec_printer (); spec_cd () ]
  in
  let digest, exits =
    driver_tour ~seed:1 ~inet_driver:"eth.rtl8139" specs (fun _ ~at ~kill ~inject ~app ->
        app "wget"
          (Wget.make ~server:Hwmap.rtl_peer_ip ~port:80 ~file:"f.bin" (Wget.fresh_result ()));
        app "dd" (Dd.make ~path:"/data.bin" (Dd.fresh_result ()));
        app "mp3" (Mp3.make ~song_bytes:40_000 (Mp3.fresh_result ()));
        app "lpd" (Lpd.make ~jobs:[ String.make 6_000 'x' ] (Lpd.fresh_result ()));
        app "cdburn" (Cdburn.make ~data:(String.make 40_000 'c') (Cdburn.fresh_result ()));
        at 20_000 (kill "blk.sata");
        at 50_000 (inject "eth.rtl8139");
        at 60_000 (kill "chr.cd");
        at 200_000 (kill "chr.audio");
        at 300_000 (kill "chr.printer");
        at 400_000 (kill "eth.rtl8139"))
  in
  Alcotest.(check string) "rtl8139/sata/audio/printer/cd digest" "d5b80f0cff247346" digest;
  Alcotest.(check (list string))
    "rtl8139/sata/audio/printer/cd exits"
    [
      "service-setup: exited 0";
      "blk.sata: killed by SIGKILL";
      "policy#blk.sata#1: exited 0";
      "chr.cd: killed by SIGKILL";
      "policy#chr.cd#2: exited 0";
      "eth.rtl8139: killed by SIGILL";
      "policy#eth.rtl8139#3: exited 0";
      "chr.audio: killed by SIGKILL";
      "policy#chr.audio#4: exited 0";
      "chr.printer: killed by SIGKILL";
      "policy#chr.printer#5: exited 0";
      "eth.rtl8139: killed by SIGKILL";
      "policy#eth.rtl8139#6: exited 0";
      "lpd: exited 0";
      "cdburn: exited 0";
      "dd: exited 0";
      "wget: exited 0";
      "mp3: exited 0";
    ]
    exits;
  let digest, exits =
    driver_tour ~seed:3 ~inet_driver:"eth.dp8390" [ System.spec_dp8390 () ]
      (fun t ~at ~kill ~inject ~app ->
        app "udp-sink" (Resilix_apps.Udp_sink.make ~ack_every:8 ~port:9 (ref 0));
        let _stop =
          Peer.start_udp_stream t.System.dp_peer ~dst_ip:Hwmap.local_ip ~dst_mac:Hwmap.dp8390_mac
            ~dst_port:9 ~src_port:7777 ~payload_len:700 ~interval:10_000
        in
        at 300_000 (inject "eth.dp8390");
        at 1_500_000 (kill "eth.dp8390"))
  in
  Alcotest.(check string) "dp8390 digest" "43086d38ea206bd2" digest;
  Alcotest.(check (list string))
    "dp8390 exits"
    [
      "service-setup: exited 0";
      "eth.dp8390: panicked: dp8390: consistency check failed in rx: r3 = 184, expected 0";
      "policy#eth.dp8390#1: exited 0";
      "eth.dp8390: killed by SIGKILL";
      "policy#eth.dp8390#2: exited 0";
    ]
    exits

(* Address spaces are allocated on their first write, so booting the
   machine up to a running NIC driver (what perf's [system.boot_ms]
   times) allocates well under 1 MB; with every space zero-filled at
   creation it was 7.9 MB. *)
let test_boot_allocation_budget () =
  let boot () =
    let t = System.boot () in
    System.start_services t [ System.spec_rtl8139 ~policy:"direct" () ];
    ignore (Sys.opaque_identity t)
  in
  boot ();
  (* The second boot: the first also pays one-off set-up. *)
  let before = Gc.allocated_bytes () in
  boot ();
  let kb = (Gc.allocated_bytes () -. before) /. 1024. in
  Alcotest.(check bool) (Printf.sprintf "%.0f KB allocated <= 1024 KB" kb) true (kb <= 1024.)

let tests =
  [
    Alcotest.test_case "boot and start services" `Quick test_boot_and_services;
    Alcotest.test_case "boot allocation budget" `Quick test_boot_allocation_budget;
    Alcotest.test_case "run_until stops mid-burst as stepping does" `Quick test_run_until_mid_burst;
    Alcotest.test_case "inbound TCP listen/accept" `Quick test_inbound_tcp_accept;
    Alcotest.test_case "floppy raw sector I/O" `Quick test_floppy_raw_io;
    Alcotest.test_case "ramdisk raw sector I/O" `Quick test_ramdisk_raw_io;
    Alcotest.test_case "service down / duplicate up" `Quick test_service_down_and_duplicate_up;
    Alcotest.test_case "wget (no faults)" `Quick test_wget_clean;
    Alcotest.test_case "wget with driver kills" `Quick test_wget_with_driver_kills;
    Alcotest.test_case "dd (no faults)" `Quick test_dd_clean;
    Alcotest.test_case "dd with driver kills" `Quick test_dd_with_driver_kills;
    Alcotest.test_case "file write/read roundtrip" `Quick test_file_write_read_roundtrip;
    Alcotest.test_case "driver trace pinned" `Quick test_driver_trace_pinned;
  ]
