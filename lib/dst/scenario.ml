module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel
module Endpoint = Resilix_proto.Endpoint
module Span = Resilix_obs.Span
module Fault = Resilix_vm.Fault
module Data_store = Resilix_datastore.Data_store
module Wget = Resilix_apps.Wget
module Fslib = Resilix_apps.Fslib
module Httpd = Resilix_apps.Httpd
module Loadgen = Resilix_load.Loadgen
module Metrics = Resilix_obs.Metrics
module Reincarnation = Resilix_core.Reincarnation
module Spec = Resilix_proto.Spec
module Privilege = Resilix_proto.Privilege

type breaker_row = {
  b_component : string;
  b_state : string;
  b_trips : int;
  b_probes : int;
  b_threshold : int;
  b_failures : int;
  b_overdue : bool;
}

type storm_stats = {
  s_requests : int;
  s_completed : int;
  s_refused : int;
  s_resets : int;
  s_timeouts : int;
  s_mismatches : int;
  s_failed : int;
  s_retries : int;
  s_degraded_rejects : int;
  s_accept_refused : int;
  s_served : int;
  s_bytes_in : int;
  s_p50 : int;
  s_p95 : int;
  s_p99 : int;
  s_goodput : int array;
  s_bin_us : int;
  s_outage_at : int;
  s_recovered_by : int;
}

type report = {
  r_completed : bool;
  r_checksum_ok : bool;
  r_endpoints_ok : bool;
  r_applied : int;
  r_expected_spans : int;
  r_recoveries : int;
  r_spans : Span.t;
  r_end_time : int;
  r_decisions : int array;
  r_degraded : string list;
  r_breakers : breaker_row list;
  r_shape : int64;
  r_storm : storm_stats option;
}

type t = {
  name : string;
  targets : string list;
  default_faults : int;
  plan : seed:int -> faults:int -> Fault_plan.t;
  run : seed:int -> policy:Engine.policy -> plan:Fault_plan.t -> report;
}

let make ~name ?(targets = []) ?(default_faults = 0)
    ?(plan = fun ~seed:_ ~faults:_ -> []) ~run () =
  { name; targets; default_faults; plan; run }

(* ------------------------------------------------------------------ *)
(* Helpers for scenario bodies                                         *)
(* ------------------------------------------------------------------ *)

(* Schedule every plan entry on the machine's engine.  An entry only
   "applies" when its target has a live process at fire time (kills on
   a mid-restart service miss, exactly like the paper's crash script);
   the returned counters are reduced into the report.  Plans are
   applied after boot, so an entry due before "now" (mutants clamp
   shifted entries to 0; repro files are outside input) fires at once. *)
let apply_plan t plan =
  let applied = ref 0 and expected_spans = ref 0 in
  let engine = t.System.engine in
  List.iter
    (fun (e : Fault_plan.entry) ->
      ignore
        (Engine.schedule_at engine ~at:(max e.at (Engine.now engine)) (fun () ->
             match e.action with
             | Fault_plan.Kill -> (
                 match System.kill_service_once t ~target:e.target with
                 | Ok () ->
                     incr applied;
                     incr expected_spans
                 | Error _ -> ())
             | Fault_plan.Inject fi -> (
                 match System.inject_fault t ~target:e.target Fault.all.(fi) with
                 | Some _ -> incr applied
                 | None -> ()))))
    plan;
  (applied, expected_spans)

let endpoints_consistent t targets =
  let degraded = Data_store.degraded t.System.ds in
  List.for_all
    (fun name ->
      if List.mem name degraded then
        (* A degraded component is parked on purpose: consistency means
           DS does NOT publish an endpoint for it (nobody is routed to
           the parked driver). *)
        Option.is_none (Data_store.lookup t.System.ds name)
      else
        match (Kernel.find_by_name t.System.kernel name, Data_store.lookup t.System.ds name) with
        | Some live, Some published -> Endpoint.compare live published = 0
        | _ -> false)
    targets

(* One second of slack past the cooldown: RS half-opens on its 100 ms
   tick, so an open breaker strictly older than cooldown + 1 s means
   the probe machinery is stuck — the "degraded components are
   eventually probed" half of the DST invariant. *)
let probe_slack_us = 1_000_000

let breaker_rows t =
  let now = Engine.now t.System.engine in
  let spans = Span.spans t.System.spans in
  List.map
    (fun (b : Reincarnation.breaker_stat) ->
      {
        b_component = b.Reincarnation.bs_component;
        b_state = Reincarnation.breaker_state_name b.Reincarnation.bs_state;
        b_trips = b.Reincarnation.bs_trips;
        b_probes = b.Reincarnation.bs_probes;
        b_threshold = b.Reincarnation.bs_threshold;
        b_failures =
          List.length
            (List.filter
               (fun s -> String.equal s.Span.component b.Reincarnation.bs_component)
               spans);
        b_overdue =
          (match b.Reincarnation.bs_state with
          | Reincarnation.B_open ->
              now - b.Reincarnation.bs_opened_at > b.Reincarnation.bs_cooldown_us + probe_slack_us
          | Reincarnation.B_closed | Reincarnation.B_half_open -> false);
      })
    (Reincarnation.breaker_stats t.System.rs)

(* The run's coverage-signature fingerprint: recovery-span shape, then
   the trace's recovery-event order, then the end-state degraded set
   and breaker states — all identity fields only, no timestamps (see
   Span.shape_fingerprint / Event.shape_add).  Distinct failure shapes
   get distinct fingerprints; re-timed copies of the same shape share
   one. *)
let shape_of t ~breakers =
  let fp h s =
    Resilix_checksum.Fnv.update_string (Resilix_checksum.Fnv.update_string h s) "\x1f"
  in
  let h = Span.shape_fingerprint t.System.spans in
  let h =
    List.fold_left Resilix_obs.Event.shape_add h (Resilix_sim.Trace.events t.System.trace)
  in
  let h = List.fold_left fp h (Data_store.degraded t.System.ds) in
  List.fold_left (fun h b -> fp (fp h b.b_component) b.b_state) h breakers

let report_of ?storm t ~completed ~checksum_ok ~applied ~expected_spans ~targets =
  let breakers = breaker_rows t in
  {
    r_completed = completed;
    r_checksum_ok = checksum_ok;
    r_endpoints_ok = endpoints_consistent t targets;
    r_applied = applied;
    r_expected_spans = expected_spans;
    r_recoveries =
      List.length (List.filter (fun s -> s.Span.closed_at <> None) (Span.spans t.System.spans));
    r_spans = t.System.spans;
    r_end_time = Engine.now t.System.engine;
    r_decisions = Engine.decisions t.System.engine;
    r_degraded = Data_store.degraded t.System.ds;
    r_breakers = breakers;
    r_shape = shape_of t ~breakers;
    r_storm = storm;
  }

(* ------------------------------------------------------------------ *)
(* Built-in scenario: wget under Ethernet-driver kills                 *)
(* ------------------------------------------------------------------ *)

let wget_run ~size ~seed ~policy ~plan =
  let t, result = Rig.wget ~engine_policy:policy ~seed ~size () in
  let applied, expected_spans = apply_plan t plan in
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> result.Wget.finished) in
  (* Let the last recovery close and dependents re-bind before the
     consistency probes run. *)
  System.run t ~until:(Engine.now t.System.engine + 1_500_000);
  report_of t ~completed:finished
    ~checksum_ok:(finished && Rig.wget_intact ~size result)
    ~applied:!applied ~expected_spans:!expected_spans ~targets:[ "eth.rtl8139" ]

let wget_sized ?name ~size () =
  let start = 100_000 and horizon = 450_000 in
  let name = Option.value name ~default:(Printf.sprintf "wget-%dk" (size / 1024)) in
  {
    name;
    targets = [ "eth.rtl8139" ];
    default_faults = 3;
    plan =
      (fun ~seed ~faults ->
        Fault_plan.generate ~seed ~targets:[ "eth.rtl8139" ] ~n:faults ~start ~horizon ());
    run = (fun ~seed ~policy ~plan -> wget_run ~size ~seed ~policy ~plan);
  }

let wget_kills = wget_sized ~name:"wget" ~size:(1024 * 1024) ()

(* ------------------------------------------------------------------ *)
(* Built-in scenario: fault injection into the DP8390 driver           *)
(* ------------------------------------------------------------------ *)

let dp_inject_run ~horizon ~seed ~policy ~plan =
  let t, received = Rig.udp_sink ~engine_policy:policy ~seed ~policy:"direct" () in
  let applied, expected_spans = apply_plan t plan in
  let stalled = Rig.stall_watchdog t ~received ~bound:1_000_000 ~pause:false in
  let rec watchdog () =
    if Engine.now t.System.engine < horizon + 2_000_000 then begin
      ignore (stalled ());
      ignore (Engine.schedule t.System.engine ~after:100_000 watchdog)
    end
  in
  watchdog ();
  System.run t ~until:(horizon + 2_000_000);
  report_of t
    ~completed:(!received > 0)
    ~checksum_ok:true ~applied:!applied ~expected_spans:!expected_spans
    ~targets:[ "eth.dp8390" ]

let dp_inject =
  let start = 500_000 and horizon = 2_500_000 in
  {
    name = "dp-inject";
    targets = [ "eth.dp8390" ];
    default_faults = 10;
    plan =
      (fun ~seed ~faults ->
        Fault_plan.generate ~seed ~targets:[ "eth.dp8390" ] ~n:faults ~start ~horizon
          ~inject_prob:1.0 ());
    run = (fun ~seed ~policy ~plan -> dp_inject_run ~horizon ~seed ~policy ~plan);
  }

(* ------------------------------------------------------------------ *)
(* Built-in scenario: a permanently-faulty driver under a breaker      *)
(* ------------------------------------------------------------------ *)

(* The audio driver is respawned as a program that panics shortly
   after coming up, forever.  Under the paper's flat scripts RS would
   restart it until the give-up bound (or without one, forever); under
   the breaker policy the component must end parked — [`Degraded],
   breaker open, endpoint unpublished — while the workload keeps
   getting clean [E_degraded]/[E_io] errors instead of hanging. *)
let flaky_horizon = 12_000_000

let flaky_run ~seed ~policy ~plan =
  let flaky () =
    Resilix_kernel.Sysif.Api.sleep 60_000;
    Resilix_kernel.Sysif.Api.exit (Resilix_proto.Status.Panicked "flaky hardware")
  in
  let spec =
    Spec.make ~name:"chr.audio" ~program:"chr.audio.flaky"
      ~privileges:(Privilege.driver ~ipc_to:[ "vfs" ] ~io_ports:[] ~irqs:[])
      ~policy:"breaker" ~mem_kb:64 ()
  in
  let t = Rig.machine ~engine_policy:policy ~programs:[ ("chr.audio.flaky", flaky) ] ~seed spec in
  let iterations = ref 0 and clean_errors = ref 0 and hung = ref false in
  ignore
    (System.spawn_app t ~name:"audio-user" (fun () ->
         let module Api = Resilix_kernel.Sysif.Api in
         let rec pump () =
           let t0 = Api.now () in
           (match Fslib.open_file "/dev/audio" ~wr:true with
           | Ok fd ->
               (match Fslib.write fd (Bytes.make 256 'x') with
               | Ok _ -> ()
               | Error _ -> incr clean_errors);
               ignore (Fslib.close fd)
           | Error _ -> incr clean_errors);
           (* A reply (even an error) must come back promptly; a parked
              driver must never turn into an application hang. *)
           if Api.now () - t0 > 2_000_000 then hung := true;
           incr iterations;
           Api.sleep 100_000;
           pump ()
         in
         pump ()));
  let applied, expected_spans = apply_plan t plan in
  System.run t ~until:flaky_horizon;
  report_of t
    ~completed:((not !hung) && !iterations >= flaky_horizon / 100_000 / 2)
    ~checksum_ok:true ~applied:!applied ~expected_spans:!expected_spans
    ~targets:[ "chr.audio" ]

let flaky =
  make ~name:"flaky" ~targets:[ "chr.audio" ]
    ~run:(fun ~seed ~policy ~plan -> flaky_run ~seed ~policy ~plan)
    ()

(* ------------------------------------------------------------------ *)
(* Built-in scenario: C10K storm — HTTP-ish load vs driver kills       *)
(* ------------------------------------------------------------------ *)

let metric_of snap name = Metrics.counter_value snap name

let storm_run ~requests ~concurrency ~workers ~backlog ~seed ~policy ~plan =
  let t = Rig.machine ~engine_policy:policy ~seed (System.spec_rtl8139 ()) in
  (* The server: one listener app binds port 80, then a pool of
     workers blocks in accept on the shared socket. *)
  let hstats = Httpd.fresh_stats () in
  ignore
    (System.spawn_app t ~name:"httpd-listener" (Httpd.listener ~backlog ~port:80 hstats));
  ignore (System.run_until t ~timeout:5_000_000 (fun () -> hstats.Httpd.listening));
  for i = 1 to workers do
    ignore (System.spawn_app t ~name:(Printf.sprintf "httpd-w%d" i) (Httpd.worker hstats))
  done;
  (* The storm: the load generator lives on the RTL-side peer and
     opens flows into the machine through the guarded driver. *)
  let config = { Loadgen.default_config with Loadgen.requests; concurrency } in
  let lg =
    Loadgen.create ~engine:t.System.engine ~seed ~peer:t.System.rtl_peer
      ~metrics:t.System.metrics ~config ~dst_ip:Hwmap.local_ip ~dst_mac:Hwmap.rtl8139_mac ()
  in
  Loadgen.start lg;
  let applied, expected_spans = apply_plan t plan in
  let finished = System.run_until t ~timeout:240_000_000 (fun () -> Loadgen.finished lg) in
  System.run t ~until:(Engine.now t.System.engine + 1_500_000);
  let ls = Loadgen.stats lg in
  let snap = Metrics.snapshot t.System.metrics in
  let q p =
    match List.assoc_opt "load.latency_us" snap.Metrics.histograms with
    | Some h -> Metrics.quantile h p
    | None -> 0
  in
  let outage_at =
    List.fold_left
      (fun acc (e : Fault_plan.entry) ->
        match e.action with
        | Fault_plan.Kill -> if acc = 0 then e.at else min acc e.at
        | Fault_plan.Inject _ -> acc)
      0 plan
  in
  let recovered_by =
    List.fold_left
      (fun acc (s : Span.span) ->
        match s.Span.closed_at with Some c -> max acc c | None -> acc)
      0
      (Span.spans t.System.spans)
  in
  let storm =
    {
      s_requests = requests;
      s_completed = ls.Loadgen.completed;
      s_refused = ls.Loadgen.refused;
      s_resets = ls.Loadgen.resets;
      s_timeouts = ls.Loadgen.timeouts;
      s_mismatches = ls.Loadgen.digest_mismatches;
      s_failed = ls.Loadgen.failed;
      s_retries = ls.Loadgen.attempts - ls.Loadgen.issued;
      s_degraded_rejects = metric_of snap "inet.degraded_rejects";
      s_accept_refused = metric_of snap "inet.accept_refused";
      s_served = hstats.Httpd.requests;
      s_bytes_in = ls.Loadgen.bytes_in;
      s_p50 = q 0.50;
      s_p95 = q 0.95;
      s_p99 = q 0.99;
      s_goodput = Loadgen.goodput_bins lg;
      s_bin_us = Loadgen.bin_us;
      s_outage_at = outage_at;
      s_recovered_by = recovered_by;
    }
  in
  report_of ~storm t ~completed:finished
    ~checksum_ok:(ls.Loadgen.digest_mismatches = 0)
    ~applied:!applied ~expected_spans:!expected_spans ~targets:[ "eth.rtl8139" ]

let storm_sized ?name ~requests ~concurrency ~workers ~backlog () =
  (* Kills land mid-storm: inside the arrival span, past the warmup. *)
  let span = requests * Loadgen.default_config.Loadgen.arrival_interval in
  let start = 150_000 + (span / 4) and horizon = 150_000 + (3 * span / 4) in
  let name = Option.value name ~default:(Printf.sprintf "storm-%d" requests) in
  {
    name;
    targets = [ "eth.rtl8139" ];
    default_faults = 1;
    plan =
      (fun ~seed ~faults ->
        Fault_plan.generate ~seed ~targets:[ "eth.rtl8139" ] ~n:faults ~start ~horizon ());
    run =
      (fun ~seed ~policy ~plan ->
        storm_run ~requests ~concurrency ~workers ~backlog ~seed ~policy ~plan);
  }

let storm = storm_sized ~name:"storm" ~requests:64 ~concurrency:32 ~workers:8 ~backlog:16 ()

(* Virtual-time-only rendering: byte-identical for any host, any
   --jobs, any repeat of the same seed. *)
let storm_lines (r : report) =
  match r.r_storm with
  | None -> []
  | Some s ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "goodput bytes/bin:";
      Array.iter (fun b -> Buffer.add_string buf (Printf.sprintf " %d" b)) s.s_goodput;
      [
        Printf.sprintf "requests %d: %d completed, %d failed, %d timed out, %d mismatched"
          s.s_requests s.s_completed s.s_failed s.s_timeouts s.s_mismatches;
        Printf.sprintf
          "attempts: %d retries, %d refused (SYN/backlog), %d resets, %d degraded-rejects, %d accept-refused"
          s.s_retries s.s_refused s.s_resets s.s_degraded_rejects s.s_accept_refused;
        Printf.sprintf "served: %d responses, %d bytes received and verified" s.s_served
          s.s_bytes_in;
        Printf.sprintf "latency: p50=%dus p95=%dus p99=%dus" s.s_p50 s.s_p95 s.s_p99;
        Printf.sprintf "outage: first kill at t=%dus, last recovery closed at t=%dus"
          s.s_outage_at s.s_recovered_by;
        Printf.sprintf "goodput timeline (%dus bins): %d bins" s.s_bin_us
          (Array.length s.s_goodput);
        Buffer.contents buf;
      ]

let builtins = [ wget_kills; dp_inject; flaky; storm ]

let find name = List.find_opt (fun s -> s.name = name) builtins
