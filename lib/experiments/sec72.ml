module System = Resilix_system.System
module Rig = Resilix_dst.Rig
module Engine = Resilix_sim.Engine
module Status = Resilix_proto.Status
module Rng = Resilix_sim.Rng
module Metrics = Resilix_obs.Metrics
module Span = Resilix_obs.Span
module Export = Resilix_obs.Export
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign

type outcome = {
  injected : int;
  crashes : int;
  panics : int;
  exceptions : int;
  heartbeats : int;
  other : int;
  recovered : int;
  user_resets : int;
  bios_resets : int;
  by_fault_type : (string * int) list;
}

type shard_result = {
  outcome : outcome;
  snapshot : Metrics.snapshot;
  spans : Span.t;
}

(* One shard: a fresh machine absorbing [faults] injections.  This is
   the paper's campaign at reduced length; the full 12,500-fault run
   is the merge of many such hermetic shards, each on its own derived
   seed, so the campaign parallelizes without sharing any state.
   [shard] tags the shard's metric snapshot so campaign-level gauge
   merges resolve deterministically by shard index.  The sink acks
   every 8th datagram, so the driver's transmit path runs too. *)
let run_shard ~shard ~faults ~seed ~wedge_prob () =
  let t, received = Rig.udp_sink ~seed ~policy:"direct" ~wedge_prob ~ack_every:8 () in
  let inj = Rig.inject_loop t ~received ~faults ~pause:false in
  (* User-requested restarts (the watchdog) are experimenter resets,
     not detected crashes. *)
  let crashes =
    List.filter (fun s -> s.Span.defect <> Status.D_killed_by_user) (Span.spans t.System.spans)
  in
  let count p = List.length (List.filter p crashes) in
  (* Per-shard gauges: merged into min/max/last distributions across
     shards in the campaign-level report. *)
  Metrics.set_named t.System.metrics "sec72.shard.user_resets" inj.Rig.user_resets;
  Metrics.set_named t.System.metrics "sec72.shard.bios_resets" inj.Rig.bios_resets;
  Metrics.set_named t.System.metrics "sec72.shard.rx_datagrams" !received;
  {
    outcome =
      {
        injected = inj.Rig.injected;
        crashes = List.length crashes;
        panics = count (fun s -> s.Span.defect = Status.D_exit);
        exceptions = count (fun s -> s.Span.defect = Status.D_exception);
        heartbeats = count (fun s -> s.Span.defect = Status.D_heartbeat);
        other =
          count (fun s ->
              match s.Span.defect with
              | Status.D_exit | Status.D_exception | Status.D_heartbeat -> false
              | _ -> true);
        recovered = count (fun s -> s.Span.closed_at <> None);
        user_resets = inj.Rig.user_resets;
        bios_resets = inj.Rig.bios_resets;
        by_fault_type = inj.Rig.by_fault_type;
      };
    snapshot = Metrics.snapshot ~at:(Engine.now t.System.engine) ~shard t.System.metrics;
    spans = t.System.spans;
  }

let default_shard_size = 500

let trials ?(faults = 12_500) ?(seed = 42) ?(wedge_prob = 0.) ?(shard_size = default_shard_size)
    () =
  if shard_size <= 0 then invalid_arg "Sec72.trials: shard_size must be positive";
  (* The shard layout depends only on [faults] and [shard_size] —
     never on the worker count — so any [jobs] value reproduces the
     same campaign. *)
  let shards = (faults + shard_size - 1) / shard_size in
  List.init shards (fun i ->
      let shard_faults = min shard_size (faults - (i * shard_size)) in
      let trial_seed = Rng.derive ~seed ~index:i in
      Trial.make
        ~name:(Printf.sprintf "sec72/shard-%03d" i)
        ~seed:trial_seed
        (run_shard ~shard:i ~faults:shard_faults ~seed:trial_seed ~wedge_prob))

let empty_outcome =
  {
    injected = 0;
    crashes = 0;
    panics = 0;
    exceptions = 0;
    heartbeats = 0;
    other = 0;
    recovered = 0;
    user_resets = 0;
    bios_resets = 0;
    by_fault_type = [];
  }

let merge_outcomes a b =
  let by_fault_type =
    let tbl = Hashtbl.create 7 in
    List.iter
      (fun (k, v) -> Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      (a.by_fault_type @ b.by_fault_type);
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    injected = a.injected + b.injected;
    crashes = a.crashes + b.crashes;
    panics = a.panics + b.panics;
    exceptions = a.exceptions + b.exceptions;
    heartbeats = a.heartbeats + b.heartbeats;
    other = a.other + b.other;
    recovered = a.recovered + b.recovered;
    user_resets = a.user_resets + b.user_resets;
    bios_resets = a.bios_resets + b.bios_resets;
    by_fault_type;
  }

let reduce results =
  List.fold_left (fun acc r -> merge_outcomes acc r.outcome) empty_outcome results

let run ?jobs ?on_progress ?faults ?seed ?wedge_prob ?shard_size ?obs () =
  let results =
    Campaign.(
      values
        (run ?jobs ?on_progress
           (trials ?faults ?seed ?wedge_prob ?shard_size ())))
  in
  (match obs with
  | None -> ()
  | Some sink ->
      (* Campaign-level observability: the union of every shard's
         metric registry, and all recovery spans concatenated in shard
         order. *)
      let snapshot = Metrics.merge_all (List.map (fun r -> r.snapshot) results) in
      List.iter sink (Export.metric_lines ~label:"sec72" snapshot);
      List.iter sink (Export.span_lines ~label:"sec72" (Span.concat (List.map (fun r -> r.spans) results))));
  reduce results

(* The crash-class split must account for every detected crash, and
   recoveries can't exceed detections: the campaign's internal
   integrity check (the classes are disjoint by construction of
   [Status.defect], so a mismatch means lost events). *)
let ok o =
  o.injected > 0
  && o.panics + o.exceptions + o.heartbeats + o.other = o.crashes
  && o.recovered <= o.crashes

let pct part whole = if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let print label o =
  Table.section (Printf.sprintf "Sec. 7.2 — fault injection into the DP8390 driver (%s)" label);
  Table.note
    "Paper anchors (Bochs): 12,500 faults -> 347 crashes: 65%% panic, 31%% CPU/MMU\n\
     exception, 4%% heartbeat; recovery succeeded in 100%% of detected failures.\n\
     Real hardware: >99%%, with <5 wedged-NIC cases needing a BIOS reset.\n\n";
  Table.print
    ~header:[ "metric"; "value"; "share" ]
    [
      [ "faults injected"; string_of_int o.injected; "" ];
      [ "detectable crashes"; string_of_int o.crashes; "" ];
      [ "  exit / internal panic (class 1)"; string_of_int o.panics;
        Printf.sprintf "%.0f%%" (pct o.panics o.crashes) ];
      [ "  CPU / MMU exception (class 2)"; string_of_int o.exceptions;
        Printf.sprintf "%.0f%%" (pct o.exceptions o.crashes) ];
      [ "  missing heartbeat (class 4)"; string_of_int o.heartbeats;
        Printf.sprintf "%.0f%%" (pct o.heartbeats o.crashes) ];
      [ "  other classes"; string_of_int o.other; Printf.sprintf "%.0f%%" (pct o.other o.crashes) ];
      [ "successful recoveries"; string_of_int o.recovered;
        Printf.sprintf "%.1f%%" (pct o.recovered o.crashes) ];
      [ "silent faults cleared by user restart"; string_of_int o.user_resets; "" ];
      [ "BIOS resets needed (wedged NIC)"; string_of_int o.bios_resets; "" ];
    ];
  Table.note "\nFaults applied by type:\n";
  Table.print ~header:[ "fault type"; "applied" ]
    (List.map (fun (k, v) -> [ k; string_of_int v ]) o.by_fault_type)
