(* Policy v2: the circuit-breaker state machine (every transition),
   the Policy_action trace contract, and the flaky-driver degradation
   story end to end. *)

module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Kernel = Resilix_kernel.Kernel
module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno
module Privilege = Resilix_proto.Privilege
module Spec = Resilix_proto.Spec
module Event = Resilix_obs.Event
module Metrics = Resilix_obs.Metrics
module Policy = Resilix_core.Policy
module Reincarnation = Resilix_core.Reincarnation
module Span = Resilix_obs.Span
module Service = Resilix_core.Service
module Data_store = Resilix_datastore.Data_store
module Fslib = Resilix_apps.Fslib
module Scenario = Resilix_dst.Scenario
module Invariant = Resilix_dst.Invariant
module Ablations = Resilix_experiments.Ablations
module Status = Resilix_proto.Status

let boot ?policies () =
  let opts =
    match policies with
    | None -> { System.default_opts with System.disk_mb = 8 }
    | Some ps ->
        {
          System.default_opts with
          System.disk_mb = 8;
          policies = System.default_opts.System.policies @ ps;
        }
  in
  System.boot ~opts ()

let svc_priv = Privilege.driver ~ipc_to:[ "rs"; "ds"; "vfs" ] ~io_ports:[] ~irqs:[]

(* Crashes 10 ms after every (re)start — a permanent fault. *)
let panicky_program () =
  Api.sleep 10_000;
  Api.panic "permanent fault"

let docile_program () =
  Resilix_drivers.Driver_lib.run_dev Resilix_drivers.Driver_lib.default_dev_handlers

let breaker_stat_of rs name =
  match
    List.find_opt (fun b -> b.Reincarnation.bs_component = name) (Reincarnation.breaker_stats rs)
  with
  | Some b -> b
  | None -> Alcotest.fail (Printf.sprintf "no breaker snapshot for %s" name)

(* Closed -> open: [trip_threshold] failures inside the window trip the
   breaker, park the service [`Degraded], unpublish its endpoint and
   publish a degraded.* record. *)
let test_trip_at_threshold () =
  let t =
    boot
      ~policies:
        [
          ( "b2",
            Policy.breaker ~trip_threshold:2 ~window_us:10_000_000 ~cooldown_us:60_000_000 () );
        ]
      ()
  in
  Kernel.register_program t.System.kernel "panicky" panicky_program;
  let spec =
    Spec.make ~name:"svc.panicky" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"b2" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 5_000_000);
  let b = breaker_stat_of t.System.rs "svc.panicky" in
  Alcotest.(check bool) "breaker open" true (b.Reincarnation.bs_state = Reincarnation.B_open);
  Alcotest.(check int) "tripped exactly once" 1 b.Reincarnation.bs_trips;
  Alcotest.(check bool) "no probe before cooldown" true (b.Reincarnation.bs_probes = 0);
  Alcotest.(check bool) "service parked degraded" true
    (Reincarnation.service_state t.System.rs "svc.panicky" = `Degraded);
  Alcotest.(check (list string))
    "RS reports it degraded" [ "svc.panicky" ]
    (Reincarnation.degraded_components t.System.rs);
  Alcotest.(check (list string))
    "DS publishes degraded.*" [ "svc.panicky" ]
    (Data_store.degraded t.System.ds);
  Alcotest.(check bool) "endpoint unpublished" true
    (Data_store.lookup t.System.ds "svc.panicky" = None);
  (* Only the failures up to the trip are recorded: the breaker bounds
     churn, it does not restart a parked component. *)
  let spans = Span.spans t.System.spans in
  Alcotest.(check int) "exactly threshold failures" 2 (List.length spans);
  Alcotest.(check int) "only the first failure restarted" 1
    (Reincarnation.restarts_of t.System.rs "svc.panicky");
  match List.rev spans with
  | absorbed :: _ ->
      Alcotest.(check bool) "absorbed span closed at the trip" true
        (absorbed.Span.closed_at <> None);
      Alcotest.(check bool) "absorbed span never respawned" false
        (List.mem_assoc Span.Respawn absorbed.Span.marks)
  | [] -> Alcotest.fail "no spans"

(* The failure window slides: failures spaced wider than [window_us]
   never accumulate to the threshold, so the breaker stays closed and
   the script keeps restarting. *)
let test_window_slides () =
  let t =
    boot
      ~policies:
        [
          ( "b-narrow",
            Policy.breaker ~trip_threshold:2 ~window_us:1_000_000 ~cooldown_us:60_000_000 () );
        ]
      ()
  in
  Kernel.register_program t.System.kernel "slow-crash" (fun () ->
      Api.sleep 2_500_000;
      Api.panic "eventual fault");
  let spec =
    Spec.make ~name:"svc.slow" ~program:"slow-crash" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"b-narrow" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 12_000_000);
  let b = breaker_stat_of t.System.rs "svc.slow" in
  Alcotest.(check bool) "breaker still closed" true
    (b.Reincarnation.bs_state = Reincarnation.B_closed);
  Alcotest.(check int) "never tripped" 0 b.Reincarnation.bs_trips;
  Alcotest.(check bool)
    (Printf.sprintf "kept restarting (%d)" (Reincarnation.restarts_of t.System.rs "svc.slow"))
    true
    (Reincarnation.restarts_of t.System.rs "svc.slow" >= 3);
  Alcotest.(check (list string)) "never degraded" [] (Data_store.degraded t.System.ds)

(* Open -> half-open -> open: after [cooldown_us] RS probes with one
   fresh incarnation; a probe that fails re-trips the breaker. *)
let test_probe_failure_reopens () =
  let t =
    boot
      ~policies:
        [
          ( "b-probe",
            Policy.breaker ~trip_threshold:2 ~window_us:10_000_000 ~cooldown_us:2_000_000
              ~confirm_us:500_000 () );
        ]
      ()
  in
  Kernel.register_program t.System.kernel "panicky" panicky_program;
  let spec =
    Spec.make ~name:"svc.panicky" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"b-probe" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 9_000_000);
  let b = breaker_stat_of t.System.rs "svc.panicky" in
  Alcotest.(check bool)
    (Printf.sprintf "probed after cooldown (%d)" b.Reincarnation.bs_probes)
    true
    (b.Reincarnation.bs_probes >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "each failed probe re-trips (%d)" b.Reincarnation.bs_trips)
    true
    (b.Reincarnation.bs_trips >= 2);
  Alcotest.(check bool) "ends open" true (b.Reincarnation.bs_state = Reincarnation.B_open);
  Alcotest.(check bool) "still degraded" true
    (Reincarnation.service_state t.System.rs "svc.panicky" = `Degraded)

(* Half-open -> closed: a probe incarnation that survives [confirm_us]
   closes the breaker, republishes the endpoint and clears the
   degraded record. *)
let test_probe_success_closes () =
  let t =
    boot
      ~policies:
        [
          ( "b-heal",
            Policy.breaker ~trip_threshold:3 ~window_us:10_000_000 ~cooldown_us:2_000_000
              ~confirm_us:1_000_000 () );
        ]
      ()
  in
  let attempts = ref 0 in
  Kernel.register_program t.System.kernel "teething" (fun () ->
      incr attempts;
      if !attempts <= 3 then begin
        Api.sleep 10_000;
        Api.panic "teething trouble"
      end
      else docile_program ());
  let spec =
    Spec.make ~name:"svc.teething" ~program:"teething" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"b-heal" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 8_000_000);
  let b = breaker_stat_of t.System.rs "svc.teething" in
  Alcotest.(check bool) "breaker closed again" true
    (b.Reincarnation.bs_state = Reincarnation.B_closed);
  Alcotest.(check int) "tripped once" 1 b.Reincarnation.bs_trips;
  Alcotest.(check int) "one probe sufficed" 1 b.Reincarnation.bs_probes;
  Alcotest.(check bool) "service back up" true
    (Reincarnation.service_state t.System.rs "svc.teething" = `Up);
  Alcotest.(check (list string)) "no longer degraded" [] (Data_store.degraded t.System.ds);
  Alcotest.(check bool) "endpoint republished" true
    (Data_store.lookup t.System.ds "svc.teething" <> None);
  Alcotest.(check bool) "degraded episode over" true (b.Reincarnation.bs_degraded_since = None)

(* While the breaker is closed, RS sends proactive N_health_probe
   notifications between heartbeats and a live driver answers them. *)
let test_health_probes_flow () =
  let t = boot () in
  Kernel.register_program t.System.kernel "docile" docile_program;
  let spec =
    Spec.make ~name:"svc.docile" ~program:"docile" ~privileges:svc_priv
      ~heartbeat_period:400_000 ~max_heartbeat_misses:3 ~policy:"breaker" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 4_000_000);
  let metrics = Kernel.metrics t.System.kernel in
  let sent = Metrics.value (Metrics.counter metrics "rs.health_probe.sent") in
  let misses = Metrics.value (Metrics.counter metrics "rs.health_probe.misses") in
  Alcotest.(check bool) (Printf.sprintf "probes sent (%d)" sent) true (sent >= 3);
  Alcotest.(check int) "all probes answered" 0 misses;
  Alcotest.(check bool) "service stayed up" true
    (Reincarnation.service_up t.System.rs "svc.docile")

(* Policy.run emits exactly one typed Policy_action trace event per
   interpreted action, in script order. *)
let test_policy_action_trace () =
  let t =
    boot
      ~policies:[ ("scripted", Policy.script [ Policy.Log "noted"; Policy.Restart; Policy.Alert "ops@local" ]) ]
      ()
  in
  Kernel.register_program t.System.kernel "panicky" panicky_program;
  let spec =
    Spec.make ~name:"svc.scripted" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
      ~policy:"scripted" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  System.run t ~until:(Engine.now t.System.engine + 1_000_000);
  let first_rep =
    Trace.query (Kernel.trace t.System.kernel) ~pred:(fun e ->
        match e.Trace.payload with
        | Event.Policy_action { component = "svc.scripted"; repetition = 1; _ } -> true
        | _ -> false)
  in
  let actions =
    List.filter_map
      (fun e ->
        match e.Trace.payload with
        | Event.Policy_action { action; _ } -> Some action
        | _ -> None)
      first_rep
  in
  Alcotest.(check (list string))
    "one event per action, in order" [ "log"; "restart"; "alert" ] actions

(* The whole degradation story, DST-style: the built-in flaky scenario
   must end with the breaker open, the component published degraded,
   the workload unblocked — and both breaker invariants clean. *)
let test_flaky_scenario_parks () =
  let s = Scenario.flaky in
  let plan = s.Scenario.plan ~seed:11 ~faults:s.Scenario.default_faults in
  let r = s.Scenario.run ~seed:11 ~policy:Engine.Fifo ~plan in
  Alcotest.(check bool) "workload kept making progress" true r.Scenario.r_completed;
  Alcotest.(check (list string)) "chr.audio published degraded" [ "chr.audio" ] r.Scenario.r_degraded;
  (match r.Scenario.r_breakers with
  | [ b ] ->
      Alcotest.(check string) "component" "chr.audio" b.Scenario.b_component;
      Alcotest.(check string) "ends open" "open" b.Scenario.b_state;
      Alcotest.(check bool)
        (Printf.sprintf "re-tripped by failing probes (%d)" b.Scenario.b_trips)
        true (b.Scenario.b_trips >= 2);
      Alcotest.(check bool) "probe machinery not stuck" false b.Scenario.b_overdue;
      Alcotest.(check bool)
        (Printf.sprintf "churn bounded (%d failures)" b.Scenario.b_failures)
        true
        (b.Scenario.b_failures <= (b.Scenario.b_threshold * (b.Scenario.b_probes + 1)) + b.Scenario.b_probes)
  | bs -> Alcotest.fail (Printf.sprintf "expected one breaker row, got %d" (List.length bs)));
  Alcotest.(check (list string))
    "breaker invariants hold" []
    (Invariant.names (Invariant.check ~bound:2_000_000 r))

(* VFS's side of the contract: once the breaker parks the audio
   driver, /dev/audio requests fail fast with E_degraded (never a
   hang), and applications can query the degraded set through DS. *)
let test_vfs_returns_e_degraded () =
  let t = boot () in
  Kernel.register_program t.System.kernel "chr.audio.flaky" (fun () ->
      Api.sleep 60_000;
      Api.exit (Resilix_proto.Status.Panicked "flaky hardware"));
  let spec =
    Spec.make ~name:"chr.audio" ~program:"chr.audio.flaky"
      ~privileges:(Privilege.driver ~ipc_to:[ "vfs" ] ~io_ports:[] ~irqs:[])
      ~policy:"breaker" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  let degraded_errors = ref 0 and other_errors = ref 0 and hung = ref false in
  let seen_degraded_list = ref [] in
  ignore
    (System.spawn_app t ~name:"audio-user" (fun () ->
         let rec pump () =
           let t0 = Api.now () in
           (match Fslib.open_file "/dev/audio" ~wr:true with
           | Ok fd ->
               (match Fslib.write fd (Bytes.make 64 'x') with
               | Ok _ -> ()
               | Error Errno.E_degraded -> incr degraded_errors
               | Error _ -> incr other_errors);
               ignore (Fslib.close fd)
           | Error Errno.E_degraded -> incr degraded_errors
           | Error _ -> incr other_errors);
           if Api.now () - t0 > 2_000_000 then hung := true;
           (match Service.degraded_components () with
           | Ok l when l <> [] -> seen_degraded_list := l
           | Ok _ | Error _ -> ());
           Api.sleep 100_000;
           pump ()
         in
         pump ()));
  System.run t ~until:12_000_000;
  Alcotest.(check bool) "no request ever hung" false !hung;
  Alcotest.(check bool)
    (Printf.sprintf "clean E_degraded errors (%d)" !degraded_errors)
    true (!degraded_errors >= 10);
  Alcotest.(check (list string))
    "apps can query the degraded set" [ "chr.audio" ] !seen_degraded_list;
  Alcotest.(check bool) "driver parked at the end" true
    (Reincarnation.service_state t.System.rs "chr.audio" = `Degraded)

(* The availability ablation's stall watchdog runs only while the
   driver is up: a half-open probe incarnation gets a full timeout
   instead of being killed by the clock left running while it was
   parked, so the breaker row charges no failure to the "user". *)
let test_availability_watchdog_spares_probes () =
  match List.rev (Ablations.availability_trials ()) with
  | [] -> Alcotest.fail "no availability trials"
  | trial :: _ ->
      let row = trial.Resilix_harness.Trial.run () in
      Alcotest.(check string) "last row is the breaker" "breaker (circuit breaker)"
        row.Ablations.a_policy;
      let user = Status.defect_name Status.D_killed_by_user in
      Alcotest.(check bool) "no killed-by-user failures" false
        (List.exists (fun (cls, _, _) -> String.equal cls user) row.Ablations.a_by_class)

let tests =
  [
    Alcotest.test_case "breaker trips at threshold" `Quick test_trip_at_threshold;
    Alcotest.test_case "failure window slides" `Quick test_window_slides;
    Alcotest.test_case "failed probe re-opens" `Quick test_probe_failure_reopens;
    Alcotest.test_case "surviving probe closes" `Quick test_probe_success_closes;
    Alcotest.test_case "health probes answered" `Quick test_health_probes_flow;
    Alcotest.test_case "policy actions traced" `Quick test_policy_action_trace;
    Alcotest.test_case "flaky scenario parks degraded" `Quick test_flaky_scenario_parks;
    Alcotest.test_case "vfs fails fast with E_degraded" `Quick test_vfs_returns_e_degraded;
    Alcotest.test_case "availability watchdog spares probes" `Quick
      test_availability_watchdog_spares_probes;
  ]
