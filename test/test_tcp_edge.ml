(* Edge-case tests for the TCP engine: sequence-number wraparound,
   segment reordering, flow control, and UDP's explicit loss tolerance
   through the full system (Sec. 6.1: "If an unreliable protocol, such
   as UDP, is used, loss of data is explicitly tolerated"). *)

module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Tcp = Resilix_net.Tcp
module Wire = Resilix_net.Wire
module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Message = Resilix_proto.Message
module Sockets = Resilix_apps.Sockets
module Api = Resilix_kernel.Sysif.Api
module Reincarnation = Resilix_core.Reincarnation

type pipe_end = {
  mutable conn : Tcp.t option;
  mutable timer : Engine.handle option;
}

(* A pipe that can delay each segment by a random extra amount,
   reordering traffic. *)
let make_pair ?(jitter = 0) ?(seed = 3) ?isn_a ?isn_b engine =
  let rng = Rng.create ~seed in
  let a = { conn = None; timer = None } and b = { conn = None; timer = None } in
  let deliver dst seg =
    let delay = 200 + if jitter > 0 then Rng.int rng jitter else 0 in
    ignore
      (Engine.schedule engine ~after:delay (fun () ->
           match dst.conn with
           | Some c -> Tcp.handle_segment c ~now:(Engine.now engine) seg
           | None -> ()))
  in
  let cb this other =
    {
      Tcp.emit = (fun seg -> deliver other seg);
      set_timer =
        (fun d ->
          (match this.timer with Some h -> Engine.cancel h | None -> ());
          this.timer <- None;
          match d with
          | Some d ->
              this.timer <-
                Some
                  (Engine.schedule engine ~after:d (fun () ->
                       this.timer <- None;
                       match this.conn with
                       | Some c -> Tcp.handle_timer c ~now:(Engine.now engine)
                       | None -> ()))
          | None -> ());
      notify = (fun _ -> ());
    }
  in
  let cfg_a =
    Tcp.default_config ~local_port:1 ~remote_port:2 ~isn:(Option.value isn_a ~default:100)
  in
  let cfg_b =
    Tcp.default_config ~local_port:2 ~remote_port:1 ~isn:(Option.value isn_b ~default:200)
  in
  b.conn <- Some (Tcp.create_passive cfg_b ~now:0 (cb b a));
  a.conn <- Some (Tcp.create_active cfg_a ~now:0 (cb a b));
  (a, b)

let transfer engine a b ~total =
  let sent = ref 0 and received = Buffer.create total in
  let ca = Option.get a.conn and cb = Option.get b.conn in
  let byte i = Char.chr ((i * 37) land 0xFF) in
  let rec feeder () =
    if !sent < total then begin
      let want = min 8000 (total - !sent) in
      let data = Bytes.init want (fun i -> byte (!sent + i)) in
      sent := !sent + Tcp.send ca ~now:(Engine.now engine) data ~off:0 ~len:want;
      if !sent >= total then Tcp.close ca ~now:(Engine.now engine);
      ignore (Engine.schedule engine ~after:1000 feeder)
    end
  in
  let rec drainer () =
    Buffer.add_bytes received (Tcp.recv cb ~max:65536);
    if Buffer.length received < total then ignore (Engine.schedule engine ~after:1000 drainer)
  in
  feeder ();
  drainer ();
  Engine.run engine ~until:120_000_000;
  let expected = String.init total byte in
  (Buffer.contents received, expected)

let test_sequence_wraparound () =
  (* ISNs just below 2^32: the stream crosses the 32-bit boundary
     almost immediately and everything still lines up. *)
  let engine = Engine.create () in
  let a, b = make_pair ~isn_a:0xFFFF_FF00 ~isn_b:0xFFFF_FFF0 engine in
  let got, expected = transfer engine a b ~total:300_000 in
  Alcotest.(check int) "all bytes across the wrap" (String.length expected) (String.length got);
  Alcotest.(check bool) "content identical" true (String.equal got expected)

let test_reordering_tolerated () =
  (* Up to 3 ms of random per-segment jitter reorders aggressively;
     the out-of-order queue must reassemble the exact stream. *)
  let engine = Engine.create () in
  let a, b = make_pair ~jitter:3000 ~seed:17 engine in
  let got, expected = transfer engine a b ~total:150_000 in
  Alcotest.(check bool) "reordered stream reassembled exactly" true (String.equal got expected)

let test_flow_control_respects_receiver () =
  (* A tiny receive window: the sender must never have more than the
     advertised window in flight, pacing itself to the slow reader. *)
  let engine = Engine.create () in
  let a = { conn = None; timer = None } and b = { conn = None; timer = None } in
  let in_flight_max = ref 0 in
  let deliver dst seg =
    ignore
      (Engine.schedule engine ~after:200 (fun () ->
           match dst.conn with
           | Some c -> Tcp.handle_segment c ~now:(Engine.now engine) seg
           | None -> ()))
  in
  let cb this other =
    {
      Tcp.emit = (fun seg -> deliver other seg);
      set_timer =
        (fun d ->
          (match this.timer with Some h -> Engine.cancel h | None -> ());
          this.timer <- None;
          match d with
          | Some d ->
              this.timer <-
                Some
                  (Engine.schedule engine ~after:d (fun () ->
                       this.timer <- None;
                       match this.conn with
                       | Some c -> Tcp.handle_timer c ~now:(Engine.now engine)
                       | None -> ()))
          | None -> ());
      notify = (fun _ -> ());
    }
  in
  let cfg_a = Tcp.default_config ~local_port:1 ~remote_port:2 ~isn:5 in
  let cfg_b =
    { (Tcp.default_config ~local_port:2 ~remote_port:1 ~isn:9) with Tcp.rx_window = 4096 }
  in
  b.conn <- Some (Tcp.create_passive cfg_b ~now:0 (cb b a));
  a.conn <- Some (Tcp.create_active cfg_a ~now:0 (cb a b));
  let ca = Option.get a.conn and cbn = Option.get b.conn in
  let total = 100_000 in
  let sent = ref 0 and received = ref 0 in
  let rec feeder () =
    if !sent < total then begin
      let data = Bytes.make (min 8000 (total - !sent)) 'w' in
      sent := !sent + Tcp.send ca ~now:(Engine.now engine) data ~off:0 ~len:(Bytes.length data);
      ignore (Engine.schedule engine ~after:500 feeder)
    end
  in
  (* Slow reader: 1 KB every 2 ms. *)
  let rec drainer () =
    let data = Tcp.recv cbn ~max:1024 in
    received := !received + Bytes.length data;
    (* rx buffer never exceeds the window it advertised *)
    if Tcp.rx_available cbn > 4096 then Alcotest.fail "receiver buffer exceeded its window";
    in_flight_max := max !in_flight_max (Tcp.rx_available cbn);
    if !received < total then ignore (Engine.schedule engine ~after:2000 drainer)
  in
  feeder ();
  drainer ();
  Engine.run engine ~until:600_000_000;
  Alcotest.(check int) "everything eventually delivered" total !received

(* UDP through the full machine: driver kills lose datagrams, nothing
   retransmits them, and the system keeps running. *)
let test_udp_loss_is_tolerated () =
  let opts = { System.default_opts with System.disk_mb = 8; inet_driver = "eth.dp8390" } in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_dp8390 ~policy:"direct" () ];
  let received = ref 0 in
  ignore
    (System.spawn_app t ~name:"udp-sink" (fun () ->
         match Sockets.socket Message.Udp with
         | Error _ -> ()
         | Ok sock ->
             ignore (Sockets.listen sock ~port:9);
             let rec pump () =
               (match Sockets.recvfrom sock ~len:2048 with
               | Ok _ -> incr received
               | Error _ -> Api.sleep 50_000);
               pump ()
             in
             pump ()));
  let stop =
    Resilix_net.Peer.start_udp_stream t.System.dp_peer ~dst_ip:Hwmap.local_ip
      ~dst_mac:Hwmap.dp8390_mac ~dst_port:9 ~src_port:6000 ~payload_len:400 ~interval:5_000
  in
  (* Kill the driver twice during a 4-second stream (200 datagrams/s). *)
  ignore
    (Engine.schedule t.System.engine ~after:1_000_000 (fun () ->
         ignore (System.kill_service_once t ~target:"eth.dp8390")));
  ignore
    (Engine.schedule t.System.engine ~after:2_500_000 (fun () ->
         ignore (System.kill_service_once t ~target:"eth.dp8390")));
  System.run t ~until:4_000_000;
  stop ();
  System.run t ~until:4_500_000;
  let sent = 4_000_000 / 5_000 in
  Alcotest.(check bool)
    (Printf.sprintf "most datagrams arrive (%d/%d)" !received sent)
    true
    (!received > sent / 2);
  Alcotest.(check bool)
    (Printf.sprintf "but kills lost some for good (%d < %d)" !received sent)
    true
    (!received < sent - 10);
  Alcotest.(check int) "driver recovered both times" 2
    (Reincarnation.restarts_of t.System.rs "eth.dp8390")

(* Two concurrent TCP downloads multiplexed over one driver. *)
let test_concurrent_downloads () =
  let size_a = 3 * 1024 * 1024 and size_b = 2 * 1024 * 1024 in
  let opts =
    {
      System.default_opts with
      System.disk_mb = 8;
      peer_files = [ ("a.bin", (size_a, 11)); ("b.bin", (size_b, 22)) ];
    }
  in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_rtl8139 () ];
  let module Wget = Resilix_apps.Wget in
  let ra = Wget.fresh_result () and rb = Wget.fresh_result () in
  ignore
    (System.spawn_app t ~name:"wget-a"
       (Wget.make ~server:Hwmap.rtl_peer_ip ~port:80 ~file:"a.bin" ra));
  ignore
    (System.spawn_app t ~name:"wget-b"
       (Wget.make ~server:Hwmap.rtl_peer_ip ~port:80 ~file:"b.bin" rb));
  (* One driver kill while both transfers are in flight. *)
  ignore
    (Engine.schedule t.System.engine ~after:300_000 (fun () ->
         ignore (System.kill_service_once t ~target:"eth.rtl8139")));
  let finished =
    System.run_until t ~timeout:300_000_000 (fun () -> ra.Wget.finished && rb.Wget.finished)
  in
  Alcotest.(check bool) "both transfers finished" true finished;
  Alcotest.(check string) "a.bin intact"
    (Resilix_net.Filegen.digest ~seed:11 ~size:size_a)
    ra.Wget.digest;
  Alcotest.(check string) "b.bin intact"
    (Resilix_net.Filegen.digest ~seed:22 ~size:size_b)
    rb.Wget.digest

(* Property: a storm of kills against several guarded services always
   ends with everything back up. *)
let prop_kill_storm_always_recovers =
  QCheck.Test.make ~name:"every kill in a storm is recovered" ~count:8
    QCheck.(pair (int_range 1 3) (int_range 1 5))
    (fun (nservices, kills_each) ->
      let t = System.boot ~opts:{ System.default_opts with System.disk_mb = 8 } () in
      let module Kernel = Resilix_kernel.Kernel in
      let module Spec = Resilix_proto.Spec in
      let module Privilege = Resilix_proto.Privilege in
      Kernel.register_program t.System.kernel "docile" (fun () ->
          Resilix_drivers.Driver_lib.run_dev Resilix_drivers.Driver_lib.default_dev_handlers);
      let names = List.init nservices (fun i -> Printf.sprintf "svc.storm%d" i) in
      System.start_services t
        (List.map
           (fun name ->
             Spec.make ~name ~program:"docile"
               ~privileges:(Privilege.driver ~ipc_to:[] ~io_ports:[] ~irqs:[])
               ~heartbeat_period:0 ~mem_kb:64 ())
           names);
      List.iteri
        (fun i name ->
          for k = 1 to kills_each do
            ignore
              (Engine.schedule t.System.engine
                 ~after:((k * 200_000) + (i * 37_000))
                 (fun () -> ignore (System.kill_service_once t ~target:name)))
          done)
        names;
      System.run t ~until:(Engine.now t.System.engine + ((kills_each + 4) * 400_000));
      List.for_all (fun name -> Reincarnation.service_up t.System.rs name) names
      && List.for_all
           (fun name -> Reincarnation.restarts_of t.System.rs name = kills_each)
           names)

let tests =
  [
    Alcotest.test_case "sequence-number wraparound" `Quick test_sequence_wraparound;
    Alcotest.test_case "segment reordering tolerated" `Quick test_reordering_tolerated;
    Alcotest.test_case "flow control respects the receiver" `Quick test_flow_control_respects_receiver;
    Alcotest.test_case "udp loss tolerated across driver kills" `Quick test_udp_loss_is_tolerated;
    Alcotest.test_case "concurrent downloads over one driver" `Quick test_concurrent_downloads;
    QCheck_alcotest.to_alcotest prop_kill_storm_always_recovers;
  ]
