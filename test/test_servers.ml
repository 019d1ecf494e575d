(* Tests for the trusted servers: data store (naming, pub/sub,
   authenticated snapshots — including state recovery across a
   reincarnation), process manager, and the complaint defect class
   through a protocol-violating driver. *)

module System = Resilix_system.System
module Kernel = Resilix_kernel.Kernel
module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Signal = Resilix_proto.Signal
module Spec = Resilix_proto.Spec
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown
module Data_store = Resilix_datastore.Data_store
module Reincarnation = Resilix_core.Reincarnation
module Span = Resilix_obs.Span
module Service = Resilix_core.Service
module Driver_lib = Resilix_drivers.Driver_lib

let boot () = System.boot ~opts:{ System.default_opts with System.disk_mb = 8 } ()

let with_app ?priv t body =
  let finished = ref false in
  let failure = ref None in
  ignore
    (System.spawn_app t ~name:"tapp" ?priv (fun () ->
         (try body () with e -> failure := Some (Printexc.to_string e));
         finished := true));
  let ok = System.run_until t ~timeout:120_000_000 (fun () -> !finished) in
  Alcotest.(check bool) "app finished" true ok;
  match !failure with Some msg -> Alcotest.fail msg | None -> ()

(* --- data store --- *)

let test_pattern_matching () =
  let cases =
    [
      ("eth.*", "eth.rtl8139", true);
      ("eth.*", "eth.", true);
      ("eth.*", "ethx", false);
      ("eth.*", "blk.sata", false);
      ("blk.sata", "blk.sata", true);
      ("blk.sata", "blk.sata2", false);
      ("*", "anything", true);
    ]
  in
  List.iter
    (fun (pattern, key, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s ~ %s" pattern key)
        expected
        (Data_store.pattern_matches ~pattern key))
    cases

let prop_star_pattern_is_prefix =
  QCheck.Test.make ~name:"'p*' matches exactly the p-prefixed keys" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 8)) (string_of_size (QCheck.Gen.int_bound 12)))
    (fun (prefix, key) ->
      let pattern = prefix ^ "*" in
      let is_prefix =
        String.length key >= String.length prefix
        && String.sub key 0 (String.length prefix) = prefix
      in
      Data_store.pattern_matches ~pattern key = is_prefix)

let ds_publish key value =
  match Api.sendrec Wellknown.ds (Message.Ds_publish { key; value }) with
  | Ok (Sysif.Rx_msg { body = Message.Ds_reply { result = Ok () }; _ }) -> ()
  | _ -> failwith "publish failed"

let ds_retrieve key =
  match Api.sendrec Wellknown.ds (Message.Ds_retrieve { key }) with
  | Ok (Sysif.Rx_msg { body = Message.Ds_retrieve_reply { result }; _ }) -> result
  | _ -> Error Errno.E_io

let test_ds_publish_retrieve_delete () =
  let t = boot () in
  with_app t (fun () ->
      ds_publish "answer" (Message.V_int 42);
      (match ds_retrieve "answer" with
      | Ok (Message.V_int 42) -> ()
      | _ -> failwith "retrieve mismatch");
      (match Api.sendrec Wellknown.ds (Message.Ds_delete { key = "answer" }) with
      | Ok _ -> ()
      | Error _ -> failwith "delete failed");
      match ds_retrieve "answer" with
      | Error Errno.E_noent -> ()
      | _ -> failwith "deleted key still present")

let test_ds_subscription_notifies () =
  let t = boot () in
  with_app t (fun () ->
      (match Api.sendrec Wellknown.ds (Message.Ds_subscribe { pattern = "cfg.*" }) with
      | Ok _ -> ()
      | Error _ -> failwith "subscribe failed");
      ds_publish "cfg.speed" (Message.V_int 9600);
      ds_publish "other.key" (Message.V_int 1);
      (* The matching publication arrives as a notification + check. *)
      match Api.receive Sysif.Any with
      | Ok (Sysif.Rx_notify { kind = Message.N_ds_update; _ }) -> (
          match Api.sendrec Wellknown.ds Message.Ds_check with
          | Ok (Sysif.Rx_msg { body = Message.Ds_check_reply { result = Ok (Some (key, Message.V_int 9600)) }; _ })
            ->
              if not (String.equal key "cfg.speed") then failwith "wrong key";
              (* And nothing else is pending (other.key did not match). *)
              (match Api.sendrec Wellknown.ds Message.Ds_check with
              | Ok (Sysif.Rx_msg { body = Message.Ds_check_reply { result = Ok None }; _ }) -> ()
              | _ -> failwith "unexpected second update")
          | _ -> failwith "check did not return the update")
      | _ -> failwith "expected a DS notification")

(* Api.ds_check drains every pending update in publication order,
   then returns. *)
let test_ds_check_drains_in_order () =
  let t = boot () in
  with_app t (fun () ->
      (match Api.ds_subscribe "cfg.*" with Ok () -> () | Error _ -> failwith "subscribe failed");
      List.iter
        (fun (key, v) -> ignore (Api.ds_publish key (Message.V_int v)))
        [ ("cfg.a", 1); ("other.x", 9); ("cfg.b", 2); ("cfg.a", 3) ];
      let seen = ref [] in
      Api.ds_check (fun key value ->
          match value with
          | Message.V_int v -> seen := (key, v) :: !seen
          | _ -> failwith "unexpected value");
      Alcotest.(check (list (pair string int)))
        "updates in publication order" [ ("cfg.a", 1); ("cfg.b", 2); ("cfg.a", 3) ] (List.rev !seen);
      Api.ds_check (fun key _ -> failwith ("update left after the drain: " ^ key)))

let test_snapshot_requires_identity () =
  let t = boot () in
  (* An anonymous app has no stable name in the registry, so the data
     store must refuse to store private state for it. *)
  with_app t (fun () ->
      match Api.sendrec Wellknown.ds (Message.Ds_snapshot_store { key = "x"; data = "y" }) with
      | Ok (Sysif.Rx_msg { body = Message.Ds_reply { result = Error Errno.E_no_perm }; _ }) -> ()
      | _ -> failwith "unauthenticated snapshot store must be refused")

(* A stateful service: keeps a counter, backs it up in the data store,
   and restores it after a restart — the Sec. 5.3 state-recovery
   mechanism ("a restarted component may need to retrieve state that
   is lost when it crashed"). *)
let stateful_program () =
  let counter = ref 0 in
  (* Restore state from our authenticated snapshot, if any.  A fresh
     incarnation may briefly precede its naming-table entry, so retry
     on EPERM like a robust service would. *)
  let rec restore tries =
    match Api.sendrec Wellknown.ds (Message.Ds_snapshot_fetch { key = "counter" }) with
    | Ok (Sysif.Rx_msg { body = Message.Ds_snapshot_reply { result = Ok data }; _ }) ->
        counter := int_of_string data
    | Ok (Sysif.Rx_msg { body = Message.Ds_snapshot_reply { result = Error Errno.E_no_perm }; _ })
      when tries > 0 ->
        Api.sleep 10_000;
        restore (tries - 1)
    | _ -> ()
  in
  restore 5;
  Driver_lib.run_dev
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_ioctl =
        (fun ~src:_ ~minor:_ ~op ~arg:_ ->
          match op with
          | "get" -> Driver_lib.Reply (Ok !counter)
          | "incr" ->
              incr counter;
              ignore
                (Api.sendrec Wellknown.ds
                   (Message.Ds_snapshot_store { key = "counter"; data = string_of_int !counter }));
              Driver_lib.Reply (Ok !counter)
          | _ -> Driver_lib.Reply (Error Errno.E_inval));
    }

let svc_ioctl name op =
  match Service.lookup name with
  | Error e -> Error e
  | Ok (ep, _) -> (
      match Api.sendrec ep (Message.Dev_ioctl { minor = 0; op; arg = 0 }) with
      | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let test_stateful_recovery_via_snapshots () =
  let t = boot () in
  Kernel.register_program t.System.kernel "stateful" stateful_program;
  let spec =
    Spec.make ~name:"svc.counter" ~program:"stateful"
      ~privileges:(Privilege.driver ~ipc_to:[ "vfs" ] ~io_ports:[] ~irqs:[])
      ~heartbeat_period:0 ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  let after_restart = ref (-1) in
  with_app ~priv:{ Privilege.app with Privilege.ipc_to = Privilege.All } t (fun () ->
      for _ = 1 to 3 do
        ignore (svc_ioctl "svc.counter" "incr")
      done;
      (* Kill the service; its in-memory counter dies with it. *)
      ignore (Service.restart "svc.counter");
      (match Service.wait_until_up "svc.counter" with
      | Ok _ -> ()
      | Error _ -> failwith "service did not come back");
      Api.sleep 50_000;
      match svc_ioctl "svc.counter" "get" with
      | Ok v -> after_restart := v
      | Error e -> failwith ("get failed: " ^ Errno.to_string e));
  Alcotest.(check int) "state restored from the data store" 3 !after_restart;
  Alcotest.(check int) "one reincarnation happened" 1
    (Reincarnation.restarts_of t.System.rs "svc.counter")

(* --- process manager --- *)

let test_pm_pidof_and_kill () =
  let t = boot () in
  Kernel.register_program t.System.kernel "sleeper" (fun () -> Api.sleep 1_000_000_000);
  let spec =
    Spec.make ~name:"svc.sleeper" ~program:"sleeper"
      ~privileges:(Privilege.driver ~ipc_to:[] ~io_ports:[] ~irqs:[])
      ~heartbeat_period:0 ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  with_app t (fun () ->
      let pid =
        match Api.sendrec Wellknown.pm (Message.Pm_pidof { name = "svc.sleeper" }) with
        | Ok (Sysif.Rx_msg { body = Message.Pm_pidof_reply { result = Ok pid }; _ }) -> pid
        | _ -> failwith "pidof failed"
      in
      (match Api.sendrec Wellknown.pm (Message.Pm_pidof { name = "nobody" }) with
      | Ok (Sysif.Rx_msg { body = Message.Pm_pidof_reply { result = Error Errno.E_noent }; _ }) -> ()
      | _ -> failwith "pidof of unknown name must fail");
      match Api.sendrec Wellknown.pm (Message.Pm_kill { pid; signal = Signal.Sig_kill }) with
      | Ok (Sysif.Rx_msg { body = Message.Pm_reply { result = Ok () }; _ }) -> ()
      | _ -> failwith "kill failed");
  (* RS recovers it (killed-by-user class). *)
  System.run t ~until:(Resilix_sim.Engine.now t.System.engine + 1_000_000);
  Alcotest.(check bool) "recovered after pm kill" true
    (Reincarnation.service_up t.System.rs "svc.sleeper")

let test_pm_kill_unknown_pid () =
  let t = boot () in
  with_app t (fun () ->
      match Api.sendrec Wellknown.pm (Message.Pm_kill { pid = 424242; signal = Signal.Sig_kill }) with
      | Ok (Sysif.Rx_msg { body = Message.Pm_reply { result = Error Errno.E_noent }; _ }) -> ()
      | _ -> failwith "killing an unknown pid must fail")

(* --- complaints (defect class 5) --- *)

(* A protocol-violating network driver: it claims to have received a
   frame of an impossible length, which INET reports to RS. *)
let liar_program () =
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Ok (Sysif.Rx_notify { kind = Message.N_sig Signal.Sig_term; _ }) -> Api.exit (Status.Exited 0)
    | Ok (Sysif.Rx_msg { src; body = Message.Dl_conf _ }) ->
        ignore (Api.asend src (Message.Dl_conf_reply { mac = 0x4242; result = Ok () }))
    | Ok (Sysif.Rx_msg { src; body = Message.Dl_readv _ }) ->
        ignore
          (Api.asend src
             (Message.Dl_task_reply
                { flags = { sent = false; received = true }; read_len = 999_999 }))
    | _ -> ());
    loop ()
  in
  loop ()

let test_complaint_defect_class () =
  let opts =
    { System.default_opts with System.disk_mb = 8; inet_driver = "eth.liar" }
  in
  let t = System.boot ~opts () in
  Kernel.register_program t.System.kernel "liar" liar_program;
  let spec =
    Spec.make ~name:"eth.liar" ~program:"liar"
      ~privileges:(Privilege.driver ~ipc_to:[ "inet" ] ~io_ports:[] ~irqs:[])
      ~heartbeat_period:0 ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  (* INET configures the driver, posts a receive buffer, the driver
     lies, INET complains, RS replaces the driver. *)
  System.run t ~until:(Resilix_sim.Engine.now t.System.engine + 3_000_000);
  let complaints =
    List.filter
      (fun s -> s.Span.defect = Status.D_complaint)
      (Span.spans t.System.spans)
  in
  Alcotest.(check bool) "at least one complaint recorded" true (List.length complaints >= 1);
  (* The liar keeps lying after every replacement, so the last event
     may still be mid-recovery; at least one full replace must have
     completed. *)
  Alcotest.(check bool) "complained-about driver was replaced" true
    (List.exists (fun s -> s.Span.closed_at <> None) complaints)

let test_complaint_requires_authority () =
  let t = boot () in
  Kernel.register_program t.System.kernel "sleeper" (fun () -> Api.sleep 1_000_000_000);
  let spec =
    Spec.make ~name:"svc.sleeper" ~program:"sleeper"
      ~privileges:(Privilege.driver ~ipc_to:[] ~io_ports:[] ~irqs:[])
      ~heartbeat_period:0 ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  with_app t (fun () ->
      (* An ordinary application is not an authorized complainer. *)
      match
        Api.sendrec Wellknown.rs (Message.Rs_complain { name = "svc.sleeper"; reason = "grudge" })
      with
      | Ok (Sysif.Rx_msg { body = Message.Rs_reply { result = Error Errno.E_no_perm }; _ }) -> ()
      | _ -> failwith "unauthorized complaint must be rejected")

(* --- INET request validation --- *)

(* Negative lengths are invalid arguments and must not reach the TCP
   queues: INET answers E_inval and keeps serving the connection. *)
let test_inet_rejects_negative_lengths () =
  let module Sockets = Resilix_apps.Sockets in
  let module Hwmap = Resilix_system.Hwmap in
  let module Filegen = Resilix_net.Filegen in
  let opts =
    { System.default_opts with System.disk_mb = 8; peer_files = [ ("f.bin", (65536, 3)) ] }
  in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_rtl8139 () ];
  let ok = function Ok v -> v | Error e -> failwith (Errno.to_string e) in
  let buf = 0x12000 in
  let io_reply msg =
    match Api.sendrec Wellknown.inet msg with
    | Ok (Sysif.Rx_msg { body = Message.In_io_reply { result }; _ }) -> result
    | _ -> failwith "no io reply from INET"
  in
  with_app t (fun () ->
      let sock = ok (Sockets.socket Message.Tcp) in
      ok (Sockets.connect sock ~addr:Hwmap.rtl_peer_ip ~port:80);
      ok (Sockets.send_all sock (Bytes.of_string "GET f.bin\n"));
      (* Let the file arrive and sit in INET's receive buffer. *)
      Api.sleep 500_000;
      let grant = ok (Api.grant_create ~for_:Wellknown.inet ~base:buf ~len:4096 ~access:Sysif.Read_write) in
      if io_reply (Message.In_recv { sock; grant; len = -1 }) <> Error Errno.E_inval then
        failwith "recv of -1 bytes must be E_inval";
      if io_reply (Message.In_send { sock; grant; len = -1 }) <> Error Errno.E_inval then
        failwith "send of -1 bytes must be E_inval";
      (* INET is still serving: the next receive returns the file. *)
      let data = ok (Sockets.recv sock ~len:4096) in
      if Bytes.length data = 0 || not (Bytes.equal data (Filegen.read ~seed:3 ~off:0 ~len:(Bytes.length data)))
      then failwith "recv after the rejected one must return the file's first bytes";
      let udp = ok (Sockets.socket Message.Udp) in
      match Api.sendrec Wellknown.inet (Message.In_recvfrom { sock = udp; grant; len = -1 }) with
      | Ok (Sysif.Rx_msg { body = Message.In_recvfrom_reply { result = Error Errno.E_inval }; _ }) -> ()
      | _ -> failwith "recvfrom of -1 bytes must be E_inval")

(* An active open made before the driver is up: its SYN waits in
   INET's transmit queue and leaves when the driver is integrated
   (Sec. 6.1), so the handshake completes well inside TCP's first
   200-ms retransmission timeout. *)
let test_inet_queues_first_syn () =
  let module Sockets = Resilix_apps.Sockets in
  let module Hwmap = Resilix_system.Hwmap in
  let t = boot () in
  System.start_services t [ System.spec_rtl8139 () ];
  let elapsed = ref 0 in
  with_app t (fun () ->
      let sock = Result.get_ok (Sockets.socket Message.Tcp) in
      let started = Api.now () in
      (match Sockets.connect sock ~addr:Hwmap.rtl_peer_ip ~port:80 with
      | Ok () -> ()
      | Error e -> failwith (Errno.to_string e));
      elapsed := Api.now () - started);
  let flushes =
    List.filter_map
      (fun (e : Resilix_sim.Trace.event) ->
        match e.payload with
        | Resilix_obs.Event.Retry { component = "eth.rtl8139"; operation = "tx-flush"; count } ->
            Some count
        | _ -> None)
      (Resilix_sim.Trace.events t.System.trace)
  in
  Alcotest.(check (list int)) "the SYN is the one frame flushed" [ 1 ] flushes;
  Alcotest.(check bool)
    (Printf.sprintf "connected after %d us, before the first RTO" !elapsed)
    true (!elapsed < 200_000)

(* --- the RTL8139 receive path --- *)

(* The RTL8139 driver, driven by a stand-in for INET: an app with a
   server's privileges that speaks the DL_* protocol itself, so a test
   decides when a receive is posted and when frames arrive.  INET binds
   the DP8390, which is not started.  [body] gets [conf ()], [readv ()]
   (post a receive), [received ()] (wait for one frame) and [arrive
   frames] (put them on the link, back to back). *)
let with_rtl8139_fed body =
  let opts = { System.default_opts with System.disk_mb = 8; inet_driver = "eth.dp8390" } in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_rtl8139 () ];
  with_app ~priv:(Privilege.server ~ipc_to:Privilege.All) t (fun () ->
      let rec driver () =
        match Api.ds_retrieve_endpoint "eth.rtl8139" with
        | Some ep -> ep
        | None -> Api.sleep 1_000; driver ()
      in
      let drv = driver () in
      let buf = 0x10000 in
      let rec reply () =
        match Api.receive Sysif.Any with
        | Ok (Sysif.Rx_msg { body = Message.Dl_conf_reply _; _ }) -> None
        | Ok (Sysif.Rx_msg { body = Message.Dl_task_reply { flags; read_len }; _ })
          when flags.Message.received ->
            let frame = Resilix_kernel.Memory.read (Api.memory ()) ~addr:buf ~len:read_len in
            Some (Bytes.to_string frame)
        | _ -> reply ()
      in
      let conf () =
        ignore (Api.asend drv (Message.Dl_conf { mode = { Message.promisc = true; broadcast = true } }));
        if reply () <> None then failwith "expected the Dl_conf reply"
      in
      let grant =
        Result.get_ok (Api.grant_create ~for_:drv ~base:buf ~len:2048 ~access:Sysif.Read_write)
      in
      let readv () = ignore (Api.asend drv (Message.Dl_readv { grant; len = 2048 })) in
      let received () = match reply () with Some frame -> frame | None -> failwith "expected a frame" in
      let arrive =
        List.iter (fun f ->
            Resilix_hw.Link.send t.System.rtl_link Resilix_hw.Link.B (Bytes.of_string f))
      in
      body ~conf ~readv ~received ~arrive);
  let exits =
    List.filter_map
      (fun (e : Resilix_sim.Trace.event) ->
        match e.payload with Resilix_obs.Event.Exit { name = "eth.rtl8139"; _ } -> Some () | _ -> None)
      (Resilix_sim.Trace.events t.System.trace)
  in
  Alcotest.(check int) "the driver never exited" 0 (List.length exits)

(* Two minimum-size frames arriving back to back while a receive is
   posted: the second (5 us behind the first on the 12-bytes/us link)
   is queued before the driver has handled the first, and waits in the
   chip until the first has been copied out, so neither is
   overwritten.  A driver that acknowledges a frame before copying it
   lets the chip DMA the next one over it. *)
let test_rtl8139_back_to_back () =
  let a = String.make 60 'a' and b = String.make 60 'b' in
  with_rtl8139_fed (fun ~conf ~readv ~received ~arrive ->
      conf ();
      readv ();
      arrive [ a; b ];
      let first = received () in
      readv ();
      let second = received () in
      Alcotest.(check (list string)) "both frames, byte-exact, in order" [ a; b ] [ first; second ])

(* A second Dl_conf while a frame waits in the chip: the reset drops
   that frame (and zeroes RXLEN), so the driver must forget it rather
   than read a zero length on the next receive and panic. *)
let test_rtl8139_reconf_drops_pending () =
  let a = String.make 100 'a' and c = String.make 80 'c' in
  with_rtl8139_fed (fun ~conf ~readv ~received ~arrive ->
      conf ();
      arrive [ a ];
      Api.sleep 1_000;
      conf ();
      readv ();
      Api.sleep 1_000;
      arrive [ c ];
      Alcotest.(check string) "the frame after the reset" c (received ()))

let tests =
  [
    Alcotest.test_case "ds pattern matching" `Quick test_pattern_matching;
    QCheck_alcotest.to_alcotest prop_star_pattern_is_prefix;
    Alcotest.test_case "ds publish/retrieve/delete" `Quick test_ds_publish_retrieve_delete;
    Alcotest.test_case "ds subscription notifies" `Quick test_ds_subscription_notifies;
    Alcotest.test_case "ds_check drains in publication order" `Quick test_ds_check_drains_in_order;
    Alcotest.test_case "snapshot needs a stable name" `Quick test_snapshot_requires_identity;
    Alcotest.test_case "stateful recovery via DS snapshots" `Quick test_stateful_recovery_via_snapshots;
    Alcotest.test_case "pm pidof and kill" `Quick test_pm_pidof_and_kill;
    Alcotest.test_case "pm kill unknown pid" `Quick test_pm_kill_unknown_pid;
    Alcotest.test_case "complaint replaces a lying driver" `Quick test_complaint_defect_class;
    Alcotest.test_case "complaints require authority" `Quick test_complaint_requires_authority;
    Alcotest.test_case "inet rejects negative lengths" `Quick test_inet_rejects_negative_lengths;
    Alcotest.test_case "inet queues the first SYN until the driver is up" `Quick
      test_inet_queues_first_syn;
    Alcotest.test_case "rtl8139 back-to-back frames reach INET intact" `Quick test_rtl8139_back_to_back;
    Alcotest.test_case "rtl8139 reconfiguration drops the pending frame" `Quick
      test_rtl8139_reconf_drops_pending;
  ]
