(* The C10K storm workload: httpd worker pool + load generator under
   mid-storm driver kills.

   Everything here runs at smoke scale (the builtin 64-request storm
   or smaller) so `dune runtest` stays fast, except one storm-1000
   regression seed (about 0.35 s); the run with 1000 concurrent
   connections lives in test/slow behind RESILIX_SLOW_TESTS=1. *)

module Engine = Resilix_sim.Engine
module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Peer = Resilix_net.Peer
module Tcp = Resilix_net.Tcp
module Metrics = Resilix_obs.Metrics
module Httpd = Resilix_apps.Httpd
module Loadgen = Resilix_load.Loadgen
module Scenario = Resilix_dst.Scenario
module Invariant = Resilix_dst.Invariant
module Explore = Resilix_dst.Explore

let storm_stats r =
  match r.Scenario.r_storm with
  | Some s -> s
  | None -> Alcotest.fail "storm report missing r_storm"

let run_builtin ~seed =
  let sc = Scenario.storm in
  let plan = sc.Scenario.plan ~seed ~faults:sc.Scenario.default_faults in
  sc.Scenario.run ~seed ~policy:Engine.Fifo ~plan

(* The tentpole smoke: a mid-storm kill of the Ethernet driver must
   leave every request resolved, every digest clean, and every DST
   invariant intact. *)
let test_storm_smoke () =
  let r = run_builtin ~seed:7 in
  let s = storm_stats r in
  Alcotest.(check bool) "storm finished" true r.Scenario.r_completed;
  Alcotest.(check bool) "digests clean" true r.Scenario.r_checksum_ok;
  Alcotest.(check bool) "the kill was applied" true (r.Scenario.r_applied >= 1);
  Alcotest.(check int) "every request resolved" s.Scenario.s_requests
    (s.Scenario.s_completed + s.Scenario.s_mismatches + s.Scenario.s_timeouts
   + s.Scenario.s_failed);
  Alcotest.(check bool) "most requests completed"
    true
    (s.Scenario.s_completed >= s.Scenario.s_requests * 8 / 10);
  Alcotest.(check bool) "the server actually served" true (s.Scenario.s_served > 0);
  Alcotest.(check bool) "latency quantiles populated" true
    (s.Scenario.s_p50 > 0 && s.Scenario.s_p50 <= s.Scenario.s_p95
    && s.Scenario.s_p95 <= s.Scenario.s_p99);
  let vs = Invariant.check ~bound:Explore.default_bound r in
  Alcotest.(check (list string)) "invariants hold" [] (Invariant.names vs)

(* Byte-identical reports: the same seed yields the same storm, down
   to the rendered report lines and the engine's decision trace. *)
let test_storm_deterministic () =
  let r1 = run_builtin ~seed:11 and r2 = run_builtin ~seed:11 in
  Alcotest.(check (list string))
    "report lines identical" (Scenario.storm_lines r1) (Scenario.storm_lines r2);
  Alcotest.(check bool) "decision traces identical" true
    (r1.Scenario.r_decisions = r2.Scenario.r_decisions);
  Alcotest.(check bool) "shapes identical" true
    (Int64.equal r1.Scenario.r_shape r2.Scenario.r_shape)

(* The storm is registered with the explorer, and exploring it is
   jobs-invariant: the same seeded batch on one domain and on two
   yields identical findings (here: none — the default bound keeps
   clean runs clean). *)
let test_storm_explore_jobs_invariant () =
  (match Scenario.find "storm" with
  | Some sc -> Alcotest.(check string) "storm is a builtin" "storm" sc.Scenario.name
  | None -> Alcotest.fail "storm not registered as a builtin scenario");
  let explore jobs = Explore.run ~jobs Scenario.storm ~seed:5 ~runs:4 () in
  let r1 = explore 1 and r2 = explore 2 in
  Alcotest.(check int) "same failure count" (List.length r1.Explore.failures)
    (List.length r2.Explore.failures);
  Alcotest.(check (list int)) "same failing run indices"
    (List.map (fun (o : Explore.outcome) -> o.Explore.o_index) r1.Explore.failures)
    (List.map (fun (o : Explore.outcome) -> o.Explore.o_index) r2.Explore.failures);
  Alcotest.(check (list string)) "clean under the default bound" []
    (List.concat_map
       (fun (o : Explore.outcome) -> Invariant.names o.Explore.o_violations)
       r1.Explore.failures)

(* Bounded accept backlog: with a 2-deep backlog and no workers
   accepting, further SYNs must be refused with RST — the client sees
   a reset before the handshake completes, and INET counts each
   refusal. *)
let test_backlog_overflow () =
  let t = System.boot () in
  System.start_services t [ System.spec_rtl8139 ~policy:"direct" () ];
  let hstats = Httpd.fresh_stats () in
  ignore
    (System.spawn_app t ~name:"listener-only" (Httpd.listener ~backlog:2 ~port:80 hstats));
  ignore (System.run_until t ~timeout:5_000_000 (fun () -> hstats.Httpd.listening));
  let refused = ref 0 and established = ref 0 in
  for _ = 1 to 6 do
    ignore
      (Peer.open_flow t.System.rtl_peer ~dst_ip:Hwmap.local_ip ~dst_mac:Hwmap.rtl8139_mac
         ~dst_port:80
         ~notify:(fun flow ev ->
           match ev with
           | Tcp.Ev_established -> incr established
           | Tcp.Ev_reset -> if not (Tcp.is_established (Peer.flow_tcp flow)) then incr refused
           | _ -> ())
         ())
  done;
  System.run t ~until:(Engine.now t.System.engine + 3_000_000);
  Alcotest.(check int) "backlog admits exactly 2" 2 !established;
  Alcotest.(check int) "the other 4 SYNs are refused" 4 !refused;
  let snap = Metrics.snapshot t.System.metrics in
  Alcotest.(check int) "INET counts each refusal" 4
    (Metrics.counter_value snap "inet.accept_refused")

(* Many simultaneous connections in one engine, no faults: a pure
   concurrency check on the TCP engine, the shared-socket accept path
   and the connection table. *)
let test_many_connections_clean () =
  let opts = { System.default_opts with System.seed = 21; disk_mb = 8 } in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_rtl8139 ~policy:"direct" () ];
  let hstats = Httpd.fresh_stats () in
  ignore (System.spawn_app t ~name:"httpd-listener" (Httpd.listener ~backlog:32 ~port:80 hstats));
  ignore (System.run_until t ~timeout:5_000_000 (fun () -> hstats.Httpd.listening));
  for i = 1 to 8 do
    ignore (System.spawn_app t ~name:(Printf.sprintf "httpd-w%d" i) (Httpd.worker hstats))
  done;
  let config =
    {
      Loadgen.requests = 40;
      concurrency = 40;
      arrival_interval = 500;
      slow_fraction = 0.;
      size_mix = [| (1, 8_192) |];
    }
  in
  let lg =
    Loadgen.create ~engine:t.System.engine ~seed:21 ~peer:t.System.rtl_peer
      ~metrics:t.System.metrics ~config ~dst_ip:Hwmap.local_ip ~dst_mac:Hwmap.rtl8139_mac ()
  in
  Loadgen.start lg;
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> Loadgen.finished lg) in
  let s = Loadgen.stats lg in
  Alcotest.(check bool) "run finished" true finished;
  Alcotest.(check int) "all 40 completed" 40 s.Loadgen.completed;
  Alcotest.(check int) "no mismatches" 0 s.Loadgen.digest_mismatches;
  Alcotest.(check int) "no timeouts" 0 s.Loadgen.timeouts;
  Alcotest.(check int) "server served all 40" 40 hstats.Httpd.requests

(* Retransmission repairs the stream across a driver outage: kill the
   driver while transfers are in flight and confirm TCP retransmitted
   (rather than the transfers failing). *)
let test_retransmit_through_outage () =
  let r = run_builtin ~seed:3 in
  let s = storm_stats r in
  Alcotest.(check bool) "a kill landed mid-storm" true (s.Scenario.s_outage_at > 0);
  Alcotest.(check bool) "recovery span closed" true
    (s.Scenario.s_recovered_by > s.Scenario.s_outage_at);
  Alcotest.(check bool) "storm still completed" true
    (s.Scenario.s_completed >= s.Scenario.s_requests * 8 / 10);
  Alcotest.(check int) "nothing corrupted" 0 s.Scenario.s_mismatches

(* The storm-1000 seed at which a slow client timed out: none of the
   eight transmissions of one of its segments reached INET, because
   the RTL8139 driver wrote its staged copy of the frame before over
   the frame the chip had just DMA'd.  With frames left where the chip
   put them, every request completes. *)
let test_storm_1000_finding_seed () =
  let sc = Scenario.storm_sized ~requests:1000 ~concurrency:500 ~workers:32 ~backlog:128 () in
  let seed = 3473225032429459623 in
  let plan = sc.Scenario.plan ~seed ~faults:sc.Scenario.default_faults in
  let s = storm_stats (sc.Scenario.run ~seed ~policy:Engine.Fifo ~plan) in
  Alcotest.(check (pair int int))
    "completed, timed out" (1000, 0)
    (s.Scenario.s_completed, s.Scenario.s_timeouts)

let tests =
  [
    Alcotest.test_case "storm smoke: kill mid-storm, invariants hold" `Quick test_storm_smoke;
    Alcotest.test_case "storm is deterministic" `Quick test_storm_deterministic;
    Alcotest.test_case "exploring the storm is jobs-invariant" `Quick
      test_storm_explore_jobs_invariant;
    Alcotest.test_case "accept backlog overflow refuses SYNs" `Quick test_backlog_overflow;
    Alcotest.test_case "many concurrent connections, clean run" `Quick
      test_many_connections_clean;
    Alcotest.test_case "retransmit through the outage" `Quick test_retransmit_through_outage;
    Alcotest.test_case "storm-1000 finding seed completes" `Quick test_storm_1000_finding_seed;
  ]
