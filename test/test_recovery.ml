(* Reincarnation-server scenarios: the six defect classes of Sec. 5.1
   and the policy machinery of Sec. 5.2. *)

module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel
module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Spec = Resilix_proto.Spec
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown
module Policy = Resilix_core.Policy
module Reincarnation = Resilix_core.Reincarnation
module Span = Resilix_obs.Span
module Service = Resilix_core.Service
module Data_store = Resilix_datastore.Data_store

let boot ?policies () =
  let opts =
    match policies with
    | None -> { System.default_opts with System.disk_mb = 8 }
    | Some ps ->
        { System.default_opts with System.disk_mb = 8; policies = System.default_opts.System.policies @ ps }
  in
  System.boot ~opts ()

let svc_priv = Privilege.driver ~ipc_to:[ "rs"; "ds"; "vfs" ] ~io_ports:[] ~irqs:[]

(* A well-behaved service: answers heartbeats, exits on SIGTERM. *)
let docile_program () =
  Resilix_drivers.Driver_lib.run_dev Resilix_drivers.Driver_lib.default_dev_handlers

(* A service that wedges itself in an infinite loop: only heartbeat
   monitoring can catch it (defect class 4). *)
let stuck_program () =
  let rec spin () =
    Api.yield ~cost:50 ();
    spin ()
  in
  spin ()

(* A service that panics shortly after starting — a crash-storm
   generator for backoff tests (defect class 1). *)
let panicky_program () =
  Api.sleep 10_000;
  Api.panic "deliberate inconsistency"

let defects_of spans = List.map (fun s -> s.Span.defect) (Span.spans spans)

let test_heartbeat_detection () =
  let t = boot () in
  Kernel.register_program t.System.kernel "stuck" stuck_program;
  let spec =
    Spec.make ~name:"svc.stuck" ~program:"stuck" ~privileges:svc_priv ~heartbeat_period:200_000
      ~max_heartbeat_misses:3 ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  (* The service never answers a single heartbeat. *)
  System.run t ~until:(Engine.now t.System.engine + 5_000_000);
  let ds = defects_of t.System.spans in
  Alcotest.(check bool) "heartbeat defect detected" true (List.mem Status.D_heartbeat ds);
  Alcotest.(check bool) "service was restarted" true
    (Reincarnation.restarts_of t.System.rs "svc.stuck" >= 1)

let test_docile_service_stays_up () =
  let t = boot () in
  Kernel.register_program t.System.kernel "docile" docile_program;
  let spec =
    Spec.make ~name:"svc.docile" ~program:"docile" ~privileges:svc_priv
      ~heartbeat_period:200_000 ~max_heartbeat_misses:3 ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 5_000_000);
  Alcotest.(check int) "no spurious recoveries" 0 (List.length (Span.spans t.System.spans));
  Alcotest.(check bool) "still up" true (Reincarnation.service_up t.System.rs "svc.docile")

let test_exponential_backoff () =
  let t = boot () in
  Kernel.register_program t.System.kernel "panicky" panicky_program;
  let spec =
    Spec.make ~name:"svc.panicky" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"generic" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 16_000_000);
  let events = Span.spans t.System.spans in
  Alcotest.(check bool)
    (Printf.sprintf "several failures recorded (%d)" (List.length events))
    true
    (List.length events >= 3);
  (* Fig. 2: sleep (1 << (repetition - 1)) between detection and
     restart, so inter-failure gaps must grow roughly geometrically. *)
  let times = List.map (fun e -> e.Span.opened_at) events in
  let rec gaps = function a :: (b :: _ as rest) -> (b - a) :: gaps rest | _ -> [] in
  (match gaps times with
  | g1 :: g2 :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "backoff grows (gap1=%dus gap2=%dus)" g1 g2)
        true
        (g2 > g1 && g2 >= 2_000_000 && g1 >= 1_000_000)
  | _ -> Alcotest.fail "expected at least two inter-failure gaps");
  (* All these failures are panics: defect class 1. *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "defect class is exit/panic" true
        (e.Span.defect = Status.D_exit))
    events

let test_policy_gives_up () =
  let t =
    boot ~policies:[ ("fragile", Policy.guarded ~max_failures:2 ~alert:"admin@local" ()) ] ()
  in
  Kernel.register_program t.System.kernel "panicky" panicky_program;
  let spec =
    Spec.make ~name:"svc.fragile" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"fragile" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 30_000_000);
  Alcotest.(check bool) "service ends down" false (Reincarnation.service_up t.System.rs "svc.fragile");
  (* The policy script raised a failure alert (the "mail"). *)
  let alerts =
    List.filter
      (fun k -> String.length k >= 5 && String.sub k 0 5 = "alert")
      (Data_store.keys t.System.ds)
  in
  Alcotest.(check bool) "alert was recorded" true (List.length alerts >= 1)

(* Versioned service for the dynamic-update test (defect class 6). *)
let versioned_program version () =
  let handlers =
    {
      Resilix_drivers.Driver_lib.default_dev_handlers with
      Resilix_drivers.Driver_lib.dh_ioctl =
        (fun ~src:_ ~minor:_ ~op ~arg:_ ->
          if String.equal op "version" then Resilix_drivers.Driver_lib.Reply (Ok version)
          else Resilix_drivers.Driver_lib.Reply (Error Errno.E_inval));
    }
  in
  Resilix_drivers.Driver_lib.run_dev handlers

let query_version target =
  match Service.lookup target with
  | Error e -> Error e
  | Ok (ep, _pid) -> (
      match Api.sendrec ep (Message.Dev_ioctl { minor = 0; op = "version"; arg = 0 }) with
      | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let test_dynamic_update () =
  let t = boot () in
  Kernel.register_program t.System.kernel "verdrv-v1" (versioned_program 1);
  Kernel.register_program t.System.kernel "verdrv-v2" (versioned_program 2);
  let spec =
    Spec.make ~name:"svc.ver" ~program:"verdrv-v1" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"generic" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  let v_before = ref 0 and v_after = ref 0 and refresh_ok = ref false and done_flag = ref false in
  ignore
    (System.spawn_app t ~name:"updater"
       ~priv:{ Privilege.app with Privilege.ipc_to = Privilege.All }
       (fun () ->
         (match query_version "svc.ver" with Ok v -> v_before := v | Error _ -> ());
         (* `service refresh` with a patched binary (Sec. 5.1 input 6). *)
         (match Service.refresh ~program:"verdrv-v2" "svc.ver" with
         | Ok () -> refresh_ok := true
         | Error _ -> ());
         (* Wait for the update to complete. *)
         let rec wait tries =
           if tries = 0 then ()
           else begin
             Api.sleep 100_000;
             match query_version "svc.ver" with
             | Ok v when v <> !v_before -> v_after := v
             | Ok _ | Error _ -> wait (tries - 1)
           end
         in
         wait 50;
         done_flag := true));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> !done_flag) in
  Alcotest.(check bool) "updater finished" true finished;
  Alcotest.(check bool) "refresh accepted" true !refresh_ok;
  Alcotest.(check int) "old version first" 1 !v_before;
  Alcotest.(check int) "new version after update" 2 !v_after;
  let events = Span.spans t.System.spans in
  Alcotest.(check bool) "defect class is dynamic update" true
    (List.exists (fun e -> e.Span.defect = Status.D_update) events);
  (* Updates skip the backoff: recovery must be fast. *)
  (match events with
  | [ e ] -> (
      match e.Span.closed_at with
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "no backoff before update restart (%dus)" (r - e.Span.opened_at))
            true
            (r - e.Span.opened_at < 500_000)
      | None -> Alcotest.fail "update recovery not completed")
  | _ -> Alcotest.fail "expected exactly one recovery event")

let test_user_restart () =
  let t = boot () in
  Kernel.register_program t.System.kernel "docile" docile_program;
  let spec =
    Spec.make ~name:"svc.docile" ~program:"docile" ~privileges:svc_priv ~heartbeat_period:0
      ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  let first_ep = ref None and second_ep = ref None and done_flag = ref false in
  ignore
    (System.spawn_app t ~name:"admin" (fun () ->
         (match Service.lookup "svc.docile" with Ok (ep, _) -> first_ep := Some ep | Error _ -> ());
         ignore (Service.restart "svc.docile");
         (match Service.wait_until_up "svc.docile" with
         | Ok ep -> second_ep := Some ep
         | Error _ -> ());
         done_flag := true));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> !done_flag) in
  Alcotest.(check bool) "admin finished" true finished;
  (match (!first_ep, !second_ep) with
  | Some a, Some b ->
      Alcotest.(check bool) "temporally unique endpoints differ across restart" false
        (Endpoint.equal a b)
  | _ -> Alcotest.fail "missing endpoints");
  Alcotest.(check bool) "defect class is killed-by-user" true
    (List.exists
       (fun e -> e.Span.defect = Status.D_killed_by_user)
       (Span.spans t.System.spans))

let test_crash_script_storm () =
  (* The Sec. 7.1 crash script, against a docile service, for many
     rounds: every kill must be recovered. *)
  let t = boot () in
  Kernel.register_program t.System.kernel "docile" docile_program;
  let spec =
    Spec.make ~name:"svc.docile" ~program:"docile" ~privileges:svc_priv ~heartbeat_period:0
      ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.start_crash_script t ~target:"svc.docile" ~interval:500_000 ~count:10 ();
  System.run t ~until:(Engine.now t.System.engine + 10_000_000);
  Alcotest.(check int) "ten kills, ten recoveries" 10
    (Reincarnation.restarts_of t.System.rs "svc.docile");
  Alcotest.(check bool) "service is up at the end" true
    (Reincarnation.service_up t.System.rs "svc.docile")

let test_exception_defect_class () =
  let t = boot () in
  Kernel.register_program t.System.kernel "wild" (fun () ->
      Api.sleep 10_000;
      (* Dereference a wild pointer: MMU exception, defect class 2. *)
      ignore (Resilix_kernel.Memory.get_u32 (Api.memory ()) 0x7FFF_FFFF));
  let spec =
    Spec.make ~name:"svc.wild" ~program:"wild" ~privileges:svc_priv ~heartbeat_period:0
      ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 2_000_000);
  Alcotest.(check bool) "CPU/MMU exception defect recorded" true
    (List.mem Status.D_exception (defects_of t.System.spans))

(* A service that ignores SIGTERM: a dynamic update must escalate to
   SIGKILL after the grace period ("followed by a SIGKILL signal, if
   the driver does not comply", Sec. 6). *)
let stubborn_program () =
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Ok (Sysif.Rx_notify { src; kind = Message.N_heartbeat_request }) ->
        ignore (Api.notify src Message.N_heartbeat_reply)
    | _ -> () (* including SIGTERM: rudely ignored *));
    loop ()
  in
  loop ()

let test_sigterm_escalates_to_sigkill () =
  let t = boot () in
  Kernel.register_program t.System.kernel "stubborn" stubborn_program;
  Kernel.register_program t.System.kernel "docile" docile_program;
  let spec =
    Spec.make ~name:"svc.stubborn" ~program:"stubborn" ~privileges:svc_priv ~heartbeat_period:0
      ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  let refreshed = ref None in
  ignore
    (System.spawn_app t ~name:"admin" (fun () ->
         refreshed := Some (Service.refresh ~program:"docile" "svc.stubborn")));
  (* Grace period is 2 s; escalation + restart within 5 s. *)
  System.run t ~until:(Engine.now t.System.engine + 5_000_000);
  (match !refreshed with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "refresh was not accepted");
  Alcotest.(check bool) "service is up on the new binary" true
    (Reincarnation.service_up t.System.rs "svc.stubborn");
  let events = Span.spans t.System.spans in
  Alcotest.(check bool) "exactly one update recovery" true
    (match events with [ e ] -> e.Span.defect = Status.D_update | _ -> false);
  (* The escalation is visible as a typed policy decision. *)
  Alcotest.(check bool) "SIGKILL escalation recorded" true
    (Resilix_sim.Trace.query t.System.trace ~pred:(fun e ->
         match e.Resilix_sim.Trace.payload with
         | Resilix_obs.Event.Policy_decision
             {
               component = "svc.stubborn";
               policy = "update";
               decision = "ignored SIGTERM; escalating to SIGKILL";
             } ->
             true
         | _ -> false)
    <> [])

(* A dedicated policy script that also restarts dependent services —
   the paper's network-server example ("recovery requires restarting
   the DHCP client and X Window System, which can be specified in a
   dedicated policy script"). *)
let test_policy_restarts_dependents () =
  let t =
    boot
      ~policies:
        [ ("with-deps", Resilix_core.Policy.script [ Restart; Restart_dependents [ "svc.dep" ] ]) ]
      ()
  in
  Kernel.register_program t.System.kernel "docile" docile_program;
  let main_spec =
    Spec.make ~name:"svc.main" ~program:"docile" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"with-deps" ~mem_kb:64 ()
  in
  let dep_spec =
    Spec.make ~name:"svc.dep" ~program:"docile" ~privileges:svc_priv ~heartbeat_period:0
      ~mem_kb:64 ()
  in
  System.start_services t [ main_spec; dep_spec ];
  let dep_ep_before = ref None and dep_ep_after = ref None in
  ignore
    (System.spawn_app t ~name:"observer" (fun () ->
         (match Service.lookup "svc.dep" with Ok (ep, _) -> dep_ep_before := Some ep | _ -> ());
         Api.sleep 300_000;
         (* Crash the main service; its policy script should also
            bounce the dependent. *)
         ()));
  System.run t ~until:(Engine.now t.System.engine + 400_000);
  ignore (System.kill_service_once t ~target:"svc.main");
  System.run t ~until:(Engine.now t.System.engine + 3_000_000);
  ignore
    (System.spawn_app t ~name:"observer2" (fun () ->
         match Service.lookup "svc.dep" with Ok (ep, _) -> dep_ep_after := Some ep | _ -> ()));
  System.run t ~until:(Engine.now t.System.engine + 1_000_000);
  Alcotest.(check bool) "main recovered" true (Reincarnation.service_up t.System.rs "svc.main");
  Alcotest.(check bool) "dependent is up" true (Reincarnation.service_up t.System.rs "svc.dep");
  Alcotest.(check bool) "dependent was restarted too" true
    (Reincarnation.restarts_of t.System.rs "svc.dep" >= 1);
  match (!dep_ep_before, !dep_ep_after) with
  | Some a, Some b ->
      Alcotest.(check bool) "dependent got a fresh endpoint" false (Endpoint.equal a b)
  | _ -> Alcotest.fail "missing dependent endpoints"

(* The last-resort policy: after repeated failures, reboot the whole
   system — every guarded service gets a fresh incarnation, including
   the innocent ones. *)
let test_policy_reboots_system () =
  let t =
    boot
      ~policies:
        [
          ( "desperate",
            Resilix_core.Policy.script [ Reboot_after { max_failures = 2 }; Restart ] );
        ]
      ()
  in
  Kernel.register_program t.System.kernel "panicky" panicky_program;
  Kernel.register_program t.System.kernel "docile" docile_program;
  let bad =
    Spec.make ~name:"svc.bad" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"desperate" ~mem_kb:64 ()
  in
  let good =
    Spec.make ~name:"svc.good" ~program:"docile" ~privileges:svc_priv ~heartbeat_period:0
      ~mem_kb:64 ()
  in
  System.start_services t [ bad; good ];
  let good_before = ref None in
  (match Kernel.find_by_name t.System.kernel "svc.good" with
  | Some ep -> good_before := Some ep
  | None -> Alcotest.fail "good service missing");
  (* svc.bad panics immediately, three failures trip the reboot. *)
  System.run t ~until:(Engine.now t.System.engine + 3_000_000);
  Alcotest.(check bool) "a reboot happened" true (Reincarnation.reboots t.System.rs >= 1);
  Alcotest.(check bool) "innocent service is up again" true
    (Reincarnation.service_up t.System.rs "svc.good");
  match (!good_before, Kernel.find_by_name t.System.kernel "svc.good") with
  | Some a, Some b ->
      Alcotest.(check bool) "innocent service was rebooted too (fresh endpoint)" false
        (Endpoint.equal a b)
  | _ -> Alcotest.fail "good service not found after reboot"

let tests =
  [
    Alcotest.test_case "heartbeat catches a stuck driver" `Quick test_heartbeat_detection;
    Alcotest.test_case "policy reboots the system" `Quick test_policy_reboots_system;
    Alcotest.test_case "SIGTERM escalation on update" `Quick test_sigterm_escalates_to_sigkill;
    Alcotest.test_case "dedicated script restarts dependents" `Quick test_policy_restarts_dependents;
    Alcotest.test_case "docile service stays up" `Quick test_docile_service_stays_up;
    Alcotest.test_case "exponential backoff (Fig. 2)" `Quick test_exponential_backoff;
    Alcotest.test_case "policy gives up after repeated failures" `Quick test_policy_gives_up;
    Alcotest.test_case "dynamic update replaces the binary" `Quick test_dynamic_update;
    Alcotest.test_case "user-requested restart" `Quick test_user_restart;
    Alcotest.test_case "crash-script storm: 10/10 recoveries" `Quick test_crash_script_storm;
    Alcotest.test_case "MMU exception defect class" `Quick test_exception_defect_class;
  ]
