(* Software fault injection mechanics (Sec. 7.2): mutate the running
   DP8390 driver's code image while UDP traffic flows, and check that
   the crash is detected and transparently recovered. *)

module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Engine = Resilix_sim.Engine
module Api = Resilix_kernel.Sysif.Api
module Message = Resilix_proto.Message
module Status = Resilix_proto.Status
module Reincarnation = Resilix_core.Reincarnation
module Fault = Resilix_vm.Fault
module Sockets = Resilix_apps.Sockets

let boot_dp () =
  let opts =
    { System.default_opts with System.disk_mb = 8; inet_driver = "eth.dp8390" }
  in
  let t = System.boot ~opts () in
  System.start_services t
    [ System.spec_dp8390 ~heartbeat_period:200_000 () ];
  t

(* A UDP sink counting datagrams from the peer. *)
let start_udp_sink t counter =
  ignore
    (System.spawn_app t ~name:"udp-sink" (fun () ->
         match Sockets.socket Message.Udp with
         | Error _ -> ()
         | Ok sock -> (
             match Sockets.listen sock ~port:9 with
             | Error _ -> ()
             | Ok () ->
                 let rec pump () =
                   match Sockets.recvfrom sock ~len:2048 with
                   | Ok _ ->
                       incr counter;
                       pump ()
                   | Error _ -> pump ()
                 in
                 pump ())))

let test_udp_echo () =
  let t = boot_dp () in
  let replies = ref 0 and done_flag = ref false in
  ignore
    (System.spawn_app t ~name:"udp-echo-client" (fun () ->
         match Sockets.socket Message.Udp with
         | Error _ -> done_flag := true
         | Ok sock ->
             ignore (Sockets.listen sock ~port:5000);
             for i = 1 to 5 do
               let payload = Bytes.of_string (Printf.sprintf "ping %d" i) in
               ignore (Sockets.sendto sock ~addr:Hwmap.dp_peer_ip ~port:7 payload);
               match Sockets.recvfrom sock ~len:256 with
               | Ok (echoed, _, _) when Bytes.equal echoed payload -> incr replies
               | Ok _ | Error _ -> ()
             done;
             done_flag := true));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> !done_flag) in
  Alcotest.(check bool) "echo client finished" true finished;
  Alcotest.(check int) "all pings echoed" 5 !replies

let test_inject_until_crash_and_recover () =
  let t = boot_dp () in
  let received = ref 0 in
  start_udp_sink t received;
  let stop_stream =
    Resilix_net.Peer.start_udp_stream t.System.dp_peer ~dst_ip:Hwmap.local_ip
      ~dst_mac:Hwmap.dp8390_mac ~dst_port:9 ~src_port:7777 ~payload_len:512 ~interval:10_000
  in
  (* Let traffic flow, then inject one fault every 100 ms until the
     driver crashes. *)
  System.run t ~until:(Engine.now t.System.engine + 1_000_000);
  let before_crash = !received in
  Alcotest.(check bool) "traffic flowing before injection" true (before_crash > 10);
  let injected = ref 0 in
  let rec inject_round () =
    if Reincarnation.restarts_of t.System.rs "eth.dp8390" = 0 && !injected < 500 then begin
      ignore (System.inject_fault t ~target:"eth.dp8390" (Fault.random_type t.System.rng));
      incr injected;
      ignore (Engine.schedule t.System.engine ~after:100_000 inject_round)
    end
  in
  inject_round ();
  let crashed =
    System.run_until t ~timeout:120_000_000 (fun () ->
        Reincarnation.restarts_of t.System.rs "eth.dp8390" >= 1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "a crash was induced (after %d faults)" !injected)
    true crashed;
  (* Traffic must resume on the reincarnated driver. *)
  let after_recovery = !received in
  System.run t ~until:(Engine.now t.System.engine + 3_000_000);
  stop_stream ();
  Alcotest.(check bool)
    (Printf.sprintf "traffic resumed after recovery (%d -> %d)" after_recovery !received)
    true
    (!received > after_recovery + 10)

let test_each_fault_type_applies () =
  let t = boot_dp () in
  System.run t ~until:(Engine.now t.System.engine + 500_000);
  Array.iter
    (fun ft ->
      match System.inject_fault t ~target:"eth.dp8390" ft with
      | Some _ -> ()
      | None -> Alcotest.fail (Fault.to_string ft ^ " found no target instruction"))
    Fault.all

(* The Sec. 7.2 crash split emerges from executing mutated driver
   code, so it pins the injector's target selection, the VM's decode
   and failure surface, and recovery together.  The numbers are the
   campaign's recorded output; any change here is a change in
   simulated behaviour. *)
let test_sec72_split_pinned () =
  let module Sec72 = Resilix_experiments.Sec72 in
  let o = Sec72.run ~faults:2500 ~seed:42 () in
  Alcotest.(check int) "injected" 2500 o.Sec72.injected;
  Alcotest.(check int) "crashes" 78 o.Sec72.crashes;
  Alcotest.(check int) "panics" 46 o.Sec72.panics;
  Alcotest.(check int) "exceptions" 32 o.Sec72.exceptions;
  Alcotest.(check int) "heartbeats" 0 o.Sec72.heartbeats;
  Alcotest.(check int) "other" 0 o.Sec72.other;
  Alcotest.(check int) "recovered" 78 o.Sec72.recovered;
  Alcotest.(check int) "user resets" 27 o.Sec72.user_resets;
  Alcotest.(check int) "bios resets" 0 o.Sec72.bios_resets;
  Alcotest.(check (list (pair string int)))
    "by fault type"
    [
      ("change-dst-register", 392);
      ("change-src-register", 359);
      ("elide-instruction", 350);
      ("flip-bit", 387);
      ("garble-pointer", 344);
      ("invert-loop-condition", 339);
      ("stale-parameter", 329);
    ]
    o.Sec72.by_fault_type

let tests =
  [
    Alcotest.test_case "udp echo through dp8390" `Quick test_udp_echo;
    Alcotest.test_case "inject until crash, then recover" `Quick test_inject_until_crash_and_recover;
    Alcotest.test_case "all 7 fault types applicable" `Quick test_each_fault_type_applies;
    Alcotest.test_case "sec72 2500-fault crash split pinned" `Quick test_sec72_split_pinned;
  ]
