module System = Resilix_system.System
module Rig = Resilix_dst.Rig
module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign
module Privilege = Resilix_proto.Privilege
module Spec = Resilix_proto.Spec
module Policy = Resilix_core.Policy
module Reincarnation = Resilix_core.Reincarnation
module Status = Resilix_proto.Status
module Span = Resilix_obs.Span
module Event = Resilix_obs.Event

(* ------------------------------------------------------------------ *)
(* Heartbeat period vs. detection latency                              *)
(* ------------------------------------------------------------------ *)

type heartbeat_row = { period_us : int; detection_us : int }

let svc_priv = Privilege.driver ~ipc_to:[ "rs"; "ds" ] ~io_ports:[] ~irqs:[]

let heartbeat_trial ~seed ~period =
  Trial.make
    ~name:(Printf.sprintf "ablation/heartbeat-%dus" period)
    ~seed
    (fun () ->
      let rec stuck () =
        Api.yield ~cost:50 ();
        stuck ()
      in
      let spec =
        Spec.make ~name:"svc.stuck" ~program:"stuck" ~privileges:svc_priv
          ~heartbeat_period:period ~max_heartbeat_misses:4 ~mem_kb:64 ()
      in
      let t = Rig.machine ~seed ~programs:[ ("stuck", stuck) ] spec in
      let started_at = Engine.now t.System.engine in
      ignore
        (System.run_until t ~timeout:120_000_000 (fun () -> Span.spans t.System.spans <> []));
      let detection =
        match Span.spans t.System.spans with
        | s :: _ -> s.Span.opened_at - started_at
        | [] -> -1
      in
      { period_us = period; detection_us = detection })

let heartbeat_trials ~seed =
  List.mapi
    (fun i period -> heartbeat_trial ~seed:(Rng.derive ~seed ~index:i) ~period)
    [ 50_000; 100_000; 250_000; 500_000; 1_000_000 ]

let heartbeat_sweep ?jobs ?on_progress ?(seed = 42) () =
  Campaign.(values (run ?jobs ?on_progress (heartbeat_trials ~seed)))

let print_heartbeat rows =
  Table.section "Ablation — heartbeat period vs. stuck-driver detection latency";
  Table.note
    "A wedged (infinite-loop) driver is only caught by heartbeats (defect class\n\
     4); detection takes ~misses x period, so shorter periods buy faster recovery\n\
     at the cost of more notification traffic.\n\n";
  Table.print
    ~header:[ "heartbeat period (ms)"; "detection latency (ms)" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%.0f" (float_of_int r.period_us /. 1e3);
           (if r.detection_us < 0 then "not detected"
            else Printf.sprintf "%.0f" (float_of_int r.detection_us /. 1e3));
         ])
       rows)

(* ------------------------------------------------------------------ *)
(* Recovery policies under a crash storm                               *)
(* ------------------------------------------------------------------ *)

type policy_row = { policy : string; restarts : int; state : string }

(* How long each policy faces the crash storm. *)
let policy_window_us = 25_000_000

let policy_trial ~seed (label, policy_key, policies) =
  Trial.make ~name:("ablation/policy-" ^ policy_key) ~seed (fun () ->
      let panicky () =
        Api.sleep 10_000;
        Api.panic "crash storm"
      in
      let spec =
        Spec.make ~name:"svc.storm" ~program:"panicky" ~privileges:svc_priv ~heartbeat_period:0
          ~policy:policy_key ~mem_kb:64 ()
      in
      let t = Rig.machine ~seed ~programs:[ ("panicky", panicky) ] ~policies spec in
      System.run t ~until:(Engine.now t.System.engine + policy_window_us);
      {
        policy = label;
        restarts = Reincarnation.restarts_of t.System.rs "svc.storm";
        state =
          (match Reincarnation.service_state t.System.rs "svc.storm" with
          | `Up -> "up (between crashes)"
          | `Restarting -> "recovering (mid-backoff)"
          | `Down -> "taken down (gave up)"
          | `Degraded -> "degraded (breaker open)"
          | `Unknown -> "unknown");
      })

let policy_trials ~seed =
  List.mapi
    (fun i scenario -> policy_trial ~seed:(Rng.derive ~seed ~index:i) scenario)
    [
      ("direct (no backoff)", "direct", []);
      ("generic (exponential backoff)", "generic", []);
      ("guarded (give up after 3)", "guard3", [ ("guard3", Policy.guarded ~max_failures:3 ()) ]);
    ]

let policy_comparison ?jobs ?on_progress ?(seed = 42) () =
  Campaign.(values (run ?jobs ?on_progress (policy_trials ~seed)))

let print_policy rows =
  Table.section "Ablation — recovery policies under a crash-storming service (25 s window)";
  Table.note
    "Direct restart burns a restart every crash; Fig. 2's exponential backoff\n\
     bounds the churn; a guarded policy stops recovering a hopeless component.\n\n";
  Table.print
    ~header:[ "policy"; "restarts in window"; "state at end" ]
    (List.map (fun r -> [ r.policy; string_of_int r.restarts; r.state ]) rows)

(* ------------------------------------------------------------------ *)
(* Policy availability under the Sec. 7.2 fault corpus                 *)
(* ------------------------------------------------------------------ *)

type availability_row = {
  a_policy : string;
  a_injected : int;
  a_crashes : int;
  a_restarts : int;
  a_downtime_us : int;
  a_horizon_us : int;
  a_availability : float;  (** percent of the horizon the driver was serving *)
  a_by_class : (string * int * int) list;
      (** defect class name, failures, downtime contributed (us) *)
  a_end_state : string;
}

let service_state_label = function
  | `Up -> "up"
  | `Restarting -> "restarting"
  | `Down -> "down (gave up)"
  | `Degraded -> "degraded (breaker open)"
  | `Unknown -> "unknown"

(* 120 faults per policy, one every 20 ms while the driver is up. *)
let availability_faults = 120

(* One machine per policy: the DP8390 driver absorbs the same random
   binary-fault corpus that the Sec. 7.2 campaign uses, under receive-
   side UDP traffic, and every detected failure's downtime (detection
   to recovery, or to the end of the run for failures never recovered)
   is charged against the run's availability.  The breaker's parked
   episodes count as downtime too: graceful degradation trades uptime
   for bounded churn and clean errors, and the table shows that trade
   honestly. *)
let availability_trial ~seed (label, policy_key, extra_policies) =
  Trial.make ~name:("ablation/availability-" ^ policy_key) ~seed (fun () ->
      let t, received = Rig.udp_sink ~seed ~policy:policy_key ~policies:extra_policies () in
      (* The stall clock runs only while the driver is up: backoff and
         parked time are the policy's, and a fresh incarnation gets a
         full timeout. *)
      let inj = Rig.inject_loop t ~received ~faults:availability_faults ~pause:true in
      let end_time = Engine.now t.System.engine in
      let horizon = end_time - inj.Rig.started_at in
      let spans = Span.spans t.System.spans in
      (* Breaker-close transitions, from the trace's typed records. *)
      let closes =
        List.filter_map
          (fun (e : Trace.event) ->
            match e.Trace.payload with
            | Event.Breaker { component; to_state = "closed"; _ } -> Some (component, e.Trace.time)
            | _ -> None)
          (Trace.events t.System.trace)
      in
      (* A failure is down from detection until its restart; one the
         breaker absorbed, until the breaker next closes; one never
         recovered, until the end of the run. *)
      let interval_of (s : Span.span) =
        let until =
          match s.Span.closed_at with
          | Some c when Reincarnation.restarted s -> c
          | Some c ->
              List.find_opt (fun (name, at) -> String.equal name s.Span.component && at >= c) closes
              |> Option.fold ~none:end_time ~some:snd
          | None -> end_time
        in
        (s.Span.opened_at, max s.Span.opened_at until)
      in
      (* Downtime is the measure of the union of those intervals:
         overlapping failures (several defects detected while the
         component is already down, e.g. watchdog kills during a long
         backoff) must not be double-charged. *)
      let union_us evs =
        let sorted = List.sort compare (List.map interval_of evs) in
        let total, last_hi =
          List.fold_left
            (fun (total, hi) (lo, up) ->
              let lo = max lo hi in
              (total + max 0 (up - lo), max hi up))
            (0, min_int) sorted
        in
        ignore last_hi;
        total
      in
      let downtime = min (union_us spans) horizon in
      let classes =
        [ Status.D_exit; Status.D_exception; Status.D_killed_by_user; Status.D_heartbeat;
          Status.D_complaint; Status.D_update ]
      in
      let by_class =
        List.filter_map
          (fun d ->
            let of_class = List.filter (fun s -> s.Span.defect = d) spans in
            if of_class = [] then None
            else Some (Status.defect_name d, List.length of_class, min (union_us of_class) horizon))
          classes
      in
      {
        a_policy = label;
        a_injected = inj.Rig.injected;
        a_crashes = List.length spans;
        a_restarts = List.length (List.filter Reincarnation.restarted spans);
        a_downtime_us = downtime;
        a_horizon_us = horizon;
        a_availability =
          (if horizon <= 0 then 0.
           else 100. *. float_of_int (horizon - downtime) /. float_of_int horizon);
        a_by_class = by_class;
        a_end_state = service_state_label (Reincarnation.service_state t.System.rs "eth.dp8390");
      })

let availability_trials ?(seed = 42) () =
  List.mapi
    (fun i scenario -> availability_trial ~seed:(Rng.derive ~seed ~index:i) scenario)
    [
      ("direct (restart only)", "direct", []);
      ("generic (Fig. 2 backoff)", "generic", []);
      ("guarded (give up after 3)", "guard3", [ ("guard3", Policy.guarded ~max_failures:3 ()) ]);
      ("breaker (circuit breaker)", "breaker", []);
    ]

let availability_study ?jobs ?on_progress ?seed () =
  Campaign.(values (run ?jobs ?on_progress (availability_trials ?seed ())))

let print_availability rows =
  Table.section "Ablation — policy availability under the Sec. 7.2 fault corpus";
  Table.note
    "Each policy absorbs the same random binary-fault corpus on the DP8390\n\
     driver.  Downtime is summed from defect detection to recovery (or to the\n\
     end of the run); the breaker's parked episodes count as downtime, buying\n\
     bounded restart churn and clean application errors instead of uptime.\n\n";
  Table.print
    ~header:
      [ "policy"; "faults"; "failures"; "restarts"; "downtime (ms)"; "availability"; "end state" ]
    (List.map
       (fun r ->
         [
           r.a_policy;
           string_of_int r.a_injected;
           string_of_int r.a_crashes;
           string_of_int r.a_restarts;
           Printf.sprintf "%.0f" (float_of_int r.a_downtime_us /. 1e3);
           Printf.sprintf "%.2f%%" r.a_availability;
           r.a_end_state;
         ])
       rows);
  Table.note "\nDowntime by defect class:\n";
  Table.print
    ~header:[ "policy"; "defect class"; "failures"; "downtime (ms)" ]
    (List.concat_map
       (fun r ->
         List.map
           (fun (cls, n, dt) ->
             [ r.a_policy; cls; string_of_int n; Printf.sprintf "%.0f" (float_of_int dt /. 1e3) ])
           r.a_by_class)
       rows)

(* ------------------------------------------------------------------ *)
(* IPC primitive costs (virtual time)                                  *)
(* ------------------------------------------------------------------ *)

type ipc_row = { operation : string; cost_us : float }

let all_priv =
  {
    Privilege.none with
    Privilege.ipc_to = Privilege.All;
    kcalls = Privilege.All;
  }

(* Rendezvous round trip (sendrec + reply), like a device request,
   plus non-blocking notification. *)
let rendezvous_trial ~rounds =
  Trial.make ~name:"ablation/ipc-rendezvous" ~seed:7 (fun () ->
      let engine = Engine.create () in
      let trace = Trace.create () in
      let rng = Rng.create ~seed:7 in
      let kernel = Kernel.create ~engine ~trace ~rng () in
      let results = ref [] in
      let record name duration count =
        results := (name, float_of_int duration /. float_of_int count) :: !results
      in
      Kernel.register_program kernel "echo" (fun () ->
          let rec loop () =
            (match Api.receive Sysif.Any with
            | Ok (Sysif.Rx_msg { src; _ }) ->
                ignore (Api.send src Resilix_proto.Message.Ok_reply)
            | _ -> ());
            loop ()
          in
          loop ());
      let echo_ep =
        match
          Kernel.spawn_dynamic kernel ~name:"echo" ~program:"echo" ~args:[] ~priv:all_priv
            ~mem_kb:64
        with
        | Ok e -> e
        | Error _ -> failwith "spawn echo"
      in
      Kernel.register_program kernel "bench" (fun () ->
          let t0 = Api.now () in
          for _ = 1 to rounds do
            ignore (Api.sendrec echo_ep Resilix_proto.Message.Ok_reply)
          done;
          record "sendrec round trip" (Api.now () - t0) rounds;
          let t0 = Api.now () in
          for _ = 1 to rounds do
            ignore (Api.notify echo_ep Resilix_proto.Message.N_heartbeat_request)
          done;
          record "notify (non-blocking)" (Api.now () - t0) rounds;
          Api.exit (Resilix_proto.Status.Exited 0));
      (match
         Kernel.spawn_dynamic kernel ~name:"bench" ~program:"bench" ~args:[] ~priv:all_priv
           ~mem_kb:64
       with
      | Ok _ -> ()
      | Error _ -> failwith "spawn bench");
      Engine.run engine ~until:600_000_000;
      List.rev_map (fun (operation, cost_us) -> { operation; cost_us }) !results)

(* Safecopy costs measured separately: one process grants, the other
   copies. *)
let safecopy_trial ~rounds =
  Trial.make ~name:"ablation/ipc-safecopy" ~seed:8 (fun () ->
      let sizes = [ 64; 1024; 16384; 65536 ] in
      let engine = Engine.create () in
      let kernel =
        Kernel.create ~engine ~trace:(Trace.create ()) ~rng:(Rng.create ~seed:8) ()
      in
      let results = ref [] in
      let record name duration count =
        results := (name, float_of_int duration /. float_of_int count) :: !results
      in
      Kernel.register_program kernel "owner" (fun () ->
          (match Api.receive Sysif.Any with
          | Ok (Sysif.Rx_msg { src; _ }) -> begin
              match Api.grant_create ~for_:src ~base:0 ~len:65536 ~access:Sysif.Read_write with
              | Ok g -> ignore (Api.send src (Resilix_proto.Message.Dev_reply { result = Ok g }))
              | Error _ -> ()
            end
          | _ -> ());
          Api.sleep 1_000_000_000);
      let owner_ep =
        match
          Kernel.spawn_dynamic kernel ~name:"owner" ~program:"owner" ~args:[] ~priv:all_priv
            ~mem_kb:128
        with
        | Ok e -> e
        | Error _ -> failwith "spawn owner"
      in
      Kernel.register_program kernel "copier" (fun () ->
          match Api.sendrec owner_ep Resilix_proto.Message.Ok_reply with
          | Ok (Sysif.Rx_msg { body = Resilix_proto.Message.Dev_reply { result = Ok g }; _ }) ->
              List.iter
                (fun size ->
                  let t0 = Api.now () in
                  for _ = 1 to rounds do
                    ignore
                      (Api.safecopy_from ~owner:owner_ep ~grant:g ~grant_off:0 ~local_addr:0
                         ~len:size)
                  done;
                  record (Printf.sprintf "safecopy %d B" size) (Api.now () - t0) rounds)
                sizes
          | _ -> ());
      (match
         Kernel.spawn_dynamic kernel ~name:"copier" ~program:"copier" ~args:[] ~priv:all_priv
           ~mem_kb:128
       with
      | Ok _ -> ()
      | Error _ -> failwith "spawn copier");
      Engine.run engine ~until:600_000_000;
      List.rev_map (fun (operation, cost_us) -> { operation; cost_us }) !results)

let ipc_microbench ?jobs ?on_progress () =
  let rounds = 1000 in
  let trials = [ rendezvous_trial ~rounds; safecopy_trial ~rounds ] in
  List.concat (Campaign.(values (run ?jobs ?on_progress trials)))

let print_ipc rows =
  Table.section "Ablation — cost of the primitives recovery is built on (virtual time)";
  Table.note
    "Sec. 4: the protection overhead is \"a few microseconds to perform the\n\
     kernel call, which is generally amortized over the costs of the I/O\".\n\n";
  Table.print
    ~header:[ "operation"; "cost (us/op)" ]
    (List.map (fun r -> [ r.operation; Printf.sprintf "%.2f" r.cost_us ]) rows)
