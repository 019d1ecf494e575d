(* Tests for the observability layer: metric registry (counters,
   gauges, log-bucketed histograms), snapshot/diff, trace-ring
   overflow, recovery spans + MTTR reports, and the JSONL export. *)

module Event = Resilix_obs.Event
module Metrics = Resilix_obs.Metrics
module Span = Resilix_obs.Span
module Export = Resilix_obs.Export
module Json = Resilix_obs.Json
module Trace = Resilix_sim.Trace
module Time = Resilix_sim.Time
module Status = Resilix_proto.Status
module Signal = Resilix_proto.Signal

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters_and_gauges () =
  let m = Metrics.create () in
  Metrics.add_named m "ipc" 3;
  Metrics.add_named m "ipc" 4;
  Metrics.set_named m "queue_depth" 9;
  Metrics.set_named m "queue_depth" 2;
  Alcotest.(check int) "counter accumulates" 7 (Metrics.value (Metrics.counter m "ipc"));
  let snap = Metrics.snapshot ~at:123 ~shard:3 m in
  Alcotest.(check int) "snapshot at" 123 snap.Metrics.taken_at;
  Alcotest.(check (list (pair string int))) "counters" [ ("ipc", 7) ] snap.Metrics.counters;
  match snap.Metrics.gauges with
  | [ ("queue_depth", g) ] ->
      Alcotest.(check int) "gauge keeps last value" 2 g.Metrics.g_last;
      Alcotest.(check int) "single-shard min is the value" 2 g.Metrics.g_min;
      Alcotest.(check int) "single-shard max is the value" 2 g.Metrics.g_max;
      Alcotest.(check int) "snapshot tags the shard" 3 g.Metrics.g_shard;
      Alcotest.(check int) "one source" 1 g.Metrics.g_sources
  | gs -> Alcotest.failf "expected one gauge, got %d" (List.length gs)

let test_counter_handles_are_shared () =
  let m = Metrics.create () in
  let a = Metrics.counter m "x" in
  let b = Metrics.counter m "x" in
  Metrics.incr a;
  Metrics.add b 2;
  Alcotest.(check int) "one underlying counter" 3
    (Metrics.counter_value (Metrics.snapshot m) "x")

let test_snapshot_diff () =
  let m = Metrics.create () in
  Metrics.add_named m "calls" 10;
  let before = Metrics.snapshot ~at:100 m in
  Metrics.add_named m "calls" 5;
  Metrics.add_named m "fresh" 1;
  let after = Metrics.snapshot ~at:200 m in
  let d = Metrics.diff before after in
  Alcotest.(check int) "diff timestamp is the end" 200 d.Metrics.taken_at;
  Alcotest.(check (list (pair string int)))
    "per-interval deltas"
    [ ("calls", 5); ("fresh", 1) ]
    d.Metrics.counters

(* ------------------------------------------------------------------ *)
(* Histogram bucketing edge cases                                      *)
(* ------------------------------------------------------------------ *)

let test_bucket_edges () =
  Alcotest.(check int) "zero in bucket 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "negative clamps to bucket 0" 0 (Metrics.bucket_of (-5));
  Alcotest.(check int) "one in bucket 1" 1 (Metrics.bucket_of 1);
  Alcotest.(check int) "boundary 2^k-1 vs 2^k" 3 (Metrics.bucket_of 7);
  Alcotest.(check int) "8 starts bucket 4" 4 (Metrics.bucket_of 8);
  Alcotest.(check int) "max_int clamps to the last bucket" 62 (Metrics.bucket_of max_int);
  Alcotest.(check int) "upper of bucket 3 is 7" 7 (Metrics.bucket_upper 3);
  Alcotest.(check bool) "last upper saturates" true (Metrics.bucket_upper 62 > 0)

let test_histogram_observe () =
  let m = Metrics.create () in
  List.iter (Metrics.observe_named m "latency") [ 0; 1; 7; 8; max_int ];
  let snap = Metrics.snapshot m in
  match snap.Metrics.histograms with
  | [ ("latency", h) ] ->
      Alcotest.(check int) "count" 5 h.Metrics.count;
      Alcotest.(check int) "min" 0 h.Metrics.min_v;
      Alcotest.(check int) "max" max_int h.Metrics.max_v;
      Alcotest.(check (list (pair int int)))
        "non-empty buckets only"
        [ (0, 1); (1, 1); (3, 1); (4, 1); (62, 1) ]
        h.Metrics.buckets
  | hs -> Alcotest.failf "expected one histogram, got %d" (List.length hs)

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)
(* ------------------------------------------------------------------ *)

let test_trace_ring_overflow () =
  let trace = Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Trace.emit trace ~now:(Time.usec i) Trace.Debug "x" "event %d" i
  done;
  let evs = Trace.events trace in
  Alcotest.(check int) "capacity enforced" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest evicted first, order kept" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.time) evs)

let test_trace_typed_query () =
  let trace = Trace.create () in
  Trace.emit_event trace ~now:(Time.usec 1) "kernel"
    (Event.Exit { ep = Resilix_proto.Endpoint.make ~slot:3 ~gen:1; name = "drv";
                  status = Status.Killed Signal.Sig_segv });
  Trace.emit trace ~now:(Time.usec 2) Trace.Info "kernel" "plain log";
  let hits =
    Trace.query trace ~pred:(fun e ->
        match e.Trace.payload with
        | Event.Exit { status = Status.Killed Signal.Sig_segv; _ } -> true
        | _ -> false)
  in
  Alcotest.(check int) "typed query finds the exit" 1 (List.length hits);
  (* Typed payloads still render to a readable one-line message. *)
  Alcotest.(check bool) "the exit renders its status" true
    (String.ends_with ~suffix:"killed(SIGSEGV)" (Trace.message (List.hd hits)))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Snapshot union (campaign aggregation)                               *)
(* ------------------------------------------------------------------ *)

let snap_of build = let m = Metrics.create () in build m; Metrics.snapshot m

let test_merge_counters_sum () =
  let a = snap_of (fun m -> Metrics.add_named m "ipc" 3; Metrics.add_named m "spawns" 1) in
  let b = snap_of (fun m -> Metrics.add_named m "ipc" 4; Metrics.add_named m "faults" 9) in
  let u = Metrics.merge a b in
  Alcotest.(check (list (pair string int)))
    "counters sum key-wise, union of names"
    [ ("faults", 9); ("ipc", 7); ("spawns", 1) ]
    u.Metrics.counters

let shard_snap_of shard build =
  let m = Metrics.create () in
  build m;
  Metrics.snapshot ~shard m

let test_merge_gauge_distribution () =
  let a = shard_snap_of 0 (fun m -> Metrics.set_named m "depth" 5; Metrics.set_named m "only_a" 1) in
  let b = shard_snap_of 1 (fun m -> Metrics.set_named m "depth" 2) in
  let u = Metrics.merge a b in
  (match u.Metrics.gauges with
  | [ ("depth", d); ("only_a", o) ] ->
      Alcotest.(check int) "last comes from the highest shard" 2 d.Metrics.g_last;
      Alcotest.(check int) "distribution min" 2 d.Metrics.g_min;
      Alcotest.(check int) "distribution max" 5 d.Metrics.g_max;
      Alcotest.(check int) "two sources" 2 d.Metrics.g_sources;
      Alcotest.(check int) "left-only survives unchanged" 1 o.Metrics.g_last;
      Alcotest.(check int) "left-only stays one source" 1 o.Metrics.g_sources
  | gs -> Alcotest.failf "expected two gauges, got %d" (List.length gs));
  (* The regression the old [last_write] combiner had: merging in the
     reverse order must produce the identical snapshot, because "last"
     is keyed on the shard index carried by the snapshot, not on merge
     order. *)
  Alcotest.(check bool) "gauge merge is commutative" true (Metrics.merge b a = u)

let test_merge_all_reversed_order_identical () =
  (* Satellite regression: reducing shard snapshots in reversed (or
     any) order yields the same aggregate a sequential in-order fold
     does — the property the campaign runner's deterministic reduce
     relies on. *)
  let shards =
    List.init 5 (fun i ->
        shard_snap_of i (fun m ->
            Metrics.set_named m "depth" (10 - (2 * i));
            Metrics.add_named m "events" (i + 1);
            Metrics.observe_named m "lat" (1 lsl i)))
  in
  let fwd = Metrics.merge_all shards in
  let rev = Metrics.merge_all (List.rev shards) in
  Alcotest.(check bool) "merge_all agrees with reversed input" true (fwd = rev);
  (* Reassociation must not matter either. *)
  let split =
    Metrics.merge
      (Metrics.merge_all (List.filteri (fun i _ -> i < 2) shards))
      (Metrics.merge_all (List.filteri (fun i _ -> i >= 2) shards))
  in
  Alcotest.(check bool) "merge reassociates freely" true (fwd = split);
  match fwd.Metrics.gauges with
  | [ ("depth", d) ] ->
      Alcotest.(check int) "last from shard 4" 2 d.Metrics.g_last;
      Alcotest.(check int) "min across shards" 2 d.Metrics.g_min;
      Alcotest.(check int) "max across shards" 10 d.Metrics.g_max;
      Alcotest.(check int) "five sources" 5 d.Metrics.g_sources
  | gs -> Alcotest.failf "expected one gauge, got %d" (List.length gs)

let test_merge_histograms () =
  let a = snap_of (fun m -> List.iter (Metrics.observe_named m "lat") [ 1; 2; 100 ]) in
  let b = snap_of (fun m -> List.iter (Metrics.observe_named m "lat") [ 3; 1000 ]) in
  let u = Metrics.merge a b in
  (match u.Metrics.histograms with
  | [ ("lat", h) ] ->
      Alcotest.(check int) "count sums" 5 h.Metrics.count;
      Alcotest.(check int) "sum sums" 1106 h.Metrics.sum;
      Alcotest.(check int) "min combines" 1 h.Metrics.min_v;
      Alcotest.(check int) "max combines" 1000 h.Metrics.max_v;
      let bucket_total = List.fold_left (fun acc (_, n) -> acc + n) 0 h.Metrics.buckets in
      Alcotest.(check int) "bucket-wise addition preserves mass" 5 bucket_total;
      (* 2 (left) and 3 (right) land in the same bucket: it must hold
         both samples after the merge. *)
      Alcotest.(check int) "shared bucket adds" 2
        (List.assoc (Metrics.bucket_of 2) h.Metrics.buckets)
  | hs -> Alcotest.fail (Printf.sprintf "expected one histogram, got %d" (List.length hs)))

let test_merge_empty_identity () =
  let s =
    snap_of (fun m ->
        Metrics.add_named m "c" 2;
        Metrics.set_named m "g" 3;
        Metrics.observe_named m "h" 7)
  in
  Alcotest.(check bool) "empty is right identity" true (Metrics.merge s Metrics.empty = s);
  Alcotest.(check bool) "empty is left identity" true (Metrics.merge Metrics.empty s = s);
  Alcotest.(check bool) "merge_all [] is empty" true (Metrics.merge_all [] = Metrics.empty);
  (* A registered-but-never-observed histogram snapshots as all zeros —
     the internal max_int/min_int accumulator sentinels must never leak
     into a snapshot — and merging it is a no-op. *)
  let e = snap_of (fun m -> ignore (Metrics.histogram m "h")) in
  (match e.Metrics.histograms with
  | [ ("h", h) ] ->
      Alcotest.(check int) "empty snapshot count" 0 h.Metrics.count;
      Alcotest.(check int) "empty snapshot min normalized" 0 h.Metrics.min_v;
      Alcotest.(check int) "empty snapshot max normalized" 0 h.Metrics.max_v;
      Alcotest.(check (list (pair int int))) "no buckets" [] h.Metrics.buckets
  | _ -> Alcotest.fail "expected the h histogram");
  let u = Metrics.merge e e in
  (match u.Metrics.histograms with
  | [ ("h", h) ] ->
      Alcotest.(check int) "empty merge count" 0 h.Metrics.count;
      Alcotest.(check int) "empty merge min" 0 h.Metrics.min_v;
      Alcotest.(check int) "empty merge max" 0 h.Metrics.max_v
  | _ -> Alcotest.fail "expected the h histogram");
  (* Empty on one side must not drag min/max toward zero on the other:
     hist_add short-circuits the count=0 operand entirely. *)
  let full = snap_of (fun m -> List.iter (Metrics.observe_named m "h") [ 5; 9 ]) in
  List.iter
    (fun merged ->
      match merged.Metrics.histograms with
      | [ ("h", h) ] ->
          Alcotest.(check int) "count unchanged" 2 h.Metrics.count;
          Alcotest.(check int) "min survives empty operand" 5 h.Metrics.min_v;
          Alcotest.(check int) "max survives empty operand" 9 h.Metrics.max_v
      | _ -> Alcotest.fail "expected the h histogram")
    [ Metrics.merge e full; Metrics.merge full e ]

let test_merge_all_associative_on_counters () =
  let mk v = snap_of (fun m -> Metrics.add_named m "c" v) in
  let u = Metrics.merge_all [ mk 1; mk 2; mk 3; mk 4 ] in
  Alcotest.(check int) "fold sums every operand" 10 (Metrics.counter_value u "c")

let test_span_concat () =
  let mk offset closed =
    let t = Span.create () in
    let s =
      Span.open_span t ~component:"eth.rtl8139" ~defect:Status.D_exit ~repetition:1
        ~now:offset
    in
    if closed then Span.close s ~now:(offset + 100);
    t
  in
  let a = mk 0 true and b = mk 1000 true and c = mk 2000 false in
  let all = Span.concat [ a; b; c ] in
  Alcotest.(check (list int))
    "spans keep source order, oldest first"
    [ 0; 1000; 2000 ]
    (List.map (fun s -> s.Span.opened_at) (Span.spans all));
  (* The concatenated collector still produces a coherent MTTR report
     over the union of closed spans. *)
  (match Span.report all with
  | [ r ] ->
      Alcotest.(check int) "two closed spans counted" 2 r.Span.n;
      Alcotest.(check int) "mean over both sources" 100 r.Span.mean_us
  | rs -> Alcotest.fail (Printf.sprintf "expected one component, got %d" (List.length rs)));
  (* New spans opened on the concatenation don't collide with ids of
     the sources' spans. *)
  let fresh =
    Span.open_span all ~component:"blk.sata" ~defect:Status.D_exit ~repetition:1 ~now:3000
  in
  Alcotest.(check bool) "fresh id unique" true
    (List.for_all
       (fun s -> s == fresh || s.Span.id <> fresh.Span.id)
       (Span.spans all))

let test_span_lifecycle () =
  let c = Span.create () in
  let s = Span.open_span c ~component:"eth" ~defect:Status.D_killed_by_user ~repetition:1 ~now:100 in
  Span.mark s Span.Policy ~now:150;
  Span.mark s Span.Policy ~now:999 (* re-mark keeps the first *);
  Span.mark_component c "eth" Span.Respawn ~now:200;
  Span.mark_component c "eth" Span.Republish ~now:250;
  Span.close_component c "eth" ~now:300;
  Alcotest.(check (option int)) "total" (Some 200) (Span.total_us s);
  Alcotest.(check (list (pair string int)))
    "phase deltas in causal order"
    [ ("detect", 0); ("policy", 50); ("respawn", 100); ("republish", 150) ]
    (List.map (fun (p, d) -> (Span.phase_name p, d)) (Span.phases s))

let test_span_reopen_after_close () =
  let c = Span.create () in
  let s = Span.open_span c ~component:"blk" ~defect:Status.D_exit ~repetition:1 ~now:0 in
  Span.close_component c "blk" ~now:50;
  (* Dependents re-bind after RS declares recovery complete: Reopen is
     the one phase accepted on a closed span — once. *)
  Span.mark_component c "blk" Span.Reopen ~now:80;
  Span.mark_component c "blk" Span.Reopen ~now:999;
  Span.mark_component c "blk" Span.Respawn ~now:999 (* other phases refused *);
  Alcotest.(check (list (pair string int)))
    "reopen recorded once, respawn refused"
    [ ("detect", 0); ("reopen", 80) ]
    (List.map (fun (p, d) -> (Span.phase_name p, d)) (Span.phases s));
  Alcotest.(check (option int)) "close kept" (Some 50) (Span.total_us s)

let test_mttr_report () =
  let c = Span.create () in
  let close ~component ~opened ~total =
    ignore
      (Span.open_span c ~component ~defect:Status.D_killed_by_user ~repetition:1 ~now:opened);
    Span.close_component c component ~now:(opened + total)
  in
  close ~component:"eth" ~opened:0 ~total:100;
  close ~component:"eth" ~opened:1000 ~total:300;
  close ~component:"blk" ~opened:2000 ~total:40;
  ignore (Span.open_span c ~component:"eth" ~defect:Status.D_exit ~repetition:3 ~now:5000);
  (* still open: excluded *)
  match Span.report c with
  | [ blk; eth ] ->
      Alcotest.(check string) "sorted by component" "blk" blk.Span.m_component;
      Alcotest.(check int) "blk n" 1 blk.Span.n;
      Alcotest.(check int) "eth n (open span excluded)" 2 eth.Span.n;
      Alcotest.(check int) "eth mean" 200 eth.Span.mean_us;
      Alcotest.(check int) "eth min" 100 eth.Span.min_us;
      Alcotest.(check int) "eth max" 300 eth.Span.max_us;
      Alcotest.(check int) "eth p95 (nearest rank of 2)" 300 eth.Span.p95_us
  | rs -> Alcotest.failf "expected two components, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* JSONL export                                                        *)
(* ------------------------------------------------------------------ *)

let test_export_jsonl () =
  let m = Metrics.create () in
  Metrics.add_named m "kernel.ipc.messages" 5;
  Metrics.set_named m "rs.restarts_pending" 2;
  Metrics.observe_named m "mttr_us" 100;
  let c = Span.create () in
  ignore (Span.open_span c ~component:"eth" ~defect:Status.D_heartbeat ~repetition:2 ~now:10);
  Span.close_component c "eth" ~now:60;
  let lines = Export.metric_lines ~label:"t" (Metrics.snapshot ~at:99 m) @ Export.span_lines ~label:"t" c in
  let has needle =
    List.exists (fun l ->
      let rec find i =
        i + String.length needle <= String.length l
        && (String.sub l i (String.length needle) = needle || find (i + 1))
      in
      find 0) lines
  in
  Alcotest.(check bool) "meta line" true (has {|"type":"meta"|});
  Alcotest.(check bool) "counter line" true (has {|"name":"kernel.ipc.messages","value":5|});
  Alcotest.(check bool) "gauge line carries the distribution" true
    (has {|"type":"gauge","label":"t","name":"rs.restarts_pending","value":2,"min":2,"max":2,"shards":1|});
  Alcotest.(check bool) "histogram line" true (has {|"type":"histogram"|});
  Alcotest.(check bool) "span line" true (has {|"type":"span"|});
  Alcotest.(check bool) "span total" true (has {|"total_us":50|});
  Alcotest.(check bool) "mttr line" true (has {|"type":"mttr"|});
  Alcotest.(check bool) "mttr component" true (has {|"component":"eth"|});
  List.iter
    (fun l ->
      Alcotest.(check bool) "line is an object" true
        (match Json.of_string l with Ok (Json.Obj _) -> true | _ -> false))
    lines

(* The exact lines, recorded before Export rendered through Json: a
   label needing escapes, every metric kind, a tagged closed span (tags
   sorted by key), an open span ("total_us":null) and its MTTR line. *)
let test_export_golden () =
  let m = Metrics.create () in
  Metrics.add_named m "kernel.ipc.messages" 5;
  Metrics.set_named m "rs.restarts_pending" 2;
  List.iter (Metrics.observe_named m "mttr_us") [ 0; 100; 5_000 ];
  let c = Span.create () in
  let s = Span.open_span c ~component:"eth" ~defect:Status.D_heartbeat ~repetition:2 ~now:10 in
  Span.mark s Span.Policy ~now:25;
  Span.tag s "policy" "say \"hi\"\t";
  Span.tag s "breaker" "closed";
  Span.close s ~now:60;
  ignore (Span.open_span c ~component:"blk" ~defect:Status.D_exit ~repetition:1 ~now:70);
  let label = "t\n1" in
  Alcotest.(check (list string))
    "export lines"
    [
      {|{"type":"meta","label":"t\n1","at_us":99}|};
      {|{"type":"counter","label":"t\n1","name":"kernel.ipc.messages","value":5}|};
      {|{"type":"gauge","label":"t\n1","name":"rs.restarts_pending","value":2,"min":2,"max":2,"shards":1}|};
      {|{"type":"histogram","label":"t\n1","name":"mttr_us","count":3,"sum":5100,"min":0,"max":5000,"buckets":[[0,1],[7,1],[13,1]]}|};
      {|{"type":"span","label":"t\n1","id":0,"component":"eth","defect":"heartbeat missing","repetition":2,"opened_at_us":10,"total_us":50,"phases":{"detect":0,"policy":15},"tags":{"breaker":"closed","policy":"say \"hi\"\t"}}|};
      {|{"type":"span","label":"t\n1","id":1,"component":"blk","defect":"exit/panic","repetition":1,"opened_at_us":70,"total_us":null,"phases":{"detect":0}}|};
      {|{"type":"mttr","label":"t\n1","component":"eth","n":1,"mean_us":50,"min_us":50,"max_us":50,"p95_us":50,"phase_mean_us":{"detect":0,"policy":15}}|};
    ]
    (Export.metric_lines ~label (Metrics.snapshot ~at:99 m) @ Export.span_lines ~label c)

(* ------------------------------------------------------------------ *)
(* Quantile estimation                                                 *)
(* ------------------------------------------------------------------ *)

let hist_of samples =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) samples;
  match (Metrics.snapshot m).Metrics.histograms with
  | [ (_, hs) ] -> hs
  | _ -> Alcotest.fail "expected one histogram"

let test_quantile_edges () =
  Alcotest.(check int) "empty histogram" 0 (Metrics.quantile (hist_of []) 0.5);
  let one = hist_of [ 37 ] in
  Alcotest.(check int) "single sample p50" 37 (Metrics.quantile one 0.5);
  Alcotest.(check int) "single sample p99" 37 (Metrics.quantile one 0.99);
  Alcotest.(check int) "q<=0 is min" 37 (Metrics.quantile one 0.);
  Alcotest.(check int) "q>=1 is max" 37 (Metrics.quantile one 1.)

let test_quantile_two_point () =
  (* Two well-separated spikes: every quantile must land on (or very
     near) one of them — min/max clamping makes the extreme buckets
     exact. *)
  let h = hist_of (List.init 90 (fun _ -> 100) @ List.init 10 (fun _ -> 10_000)) in
  let in_bucket name v = Alcotest.(check bool) name true (v >= 100 && v <= 127) in
  (* the low spike's bucket is [64,127], clamped below by min_v=100 *)
  in_bucket "p50 within the low spike's bucket" (Metrics.quantile h 0.5);
  in_bucket "p90 within the low spike's bucket" (Metrics.quantile h 0.9);
  (* the high spike's bucket, clamped above by max_v *)
  let p99 = Metrics.quantile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p99 within the high spike's bucket (got %d)" p99)
    true
    (p99 > 5_000 && p99 <= 10_000);
  Alcotest.(check int) "p100 exactly the max" 10_000 (Metrics.quantile h 1.0)

let test_quantile_uniform () =
  (* Uniform over [1, 4096]: the log-bucket estimate must stay within
     one bucket width (a factor of 2) of the true quantile. *)
  let h = hist_of (List.init 4096 (fun i -> i + 1)) in
  List.iter
    (fun q ->
      let truth = int_of_float (q *. 4096.) in
      let est = Metrics.quantile h q in
      let ok = est >= truth / 2 && est <= truth * 2 in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within a bucket width (est %d, true %d)" (q *. 100.) est truth)
        true ok)
    [ 0.5; 0.9; 0.95; 0.99 ];
  (* and it must be monotone in q *)
  let est = List.map (Metrics.quantile h) [ 0.1; 0.5; 0.9; 0.99 ] in
  Alcotest.(check bool) "monotone" true (List.sort compare est = est)

let test_quantile_merge_consistent () =
  (* Quantiles of a merged snapshot = quantiles of the union of the
     samples (buckets add exactly). *)
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let h1 = Metrics.histogram m1 "lat" and h2 = Metrics.histogram m2 "lat" in
  List.iter (Metrics.observe h1) (List.init 50 (fun i -> 10 + i));
  List.iter (Metrics.observe h2) (List.init 50 (fun i -> 5_000 + i));
  let merged = Metrics.merge (Metrics.snapshot m1) (Metrics.snapshot ~shard:1 m2) in
  match merged.Metrics.histograms with
  | [ (_, hs) ] ->
      let union = hist_of (List.init 50 (fun i -> 10 + i) @ List.init 50 (fun i -> 5_000 + i)) in
      List.iter
        (fun q ->
          Alcotest.(check int)
            (Printf.sprintf "q=%.2f agrees" q)
            (Metrics.quantile union q) (Metrics.quantile hs q))
        [ 0.25; 0.5; 0.75; 0.95 ]
  | _ -> Alcotest.fail "expected one merged histogram"

let test_json_escape () =
  Alcotest.(check string) "quotes and backslashes" {|a\"b\\c|} (Event.json_escape {|a"b\c|});
  Alcotest.(check string) "control chars" {|x\ny|} (Event.json_escape "x\ny")

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_parse () =
  let ok s v = Alcotest.(check bool) s true (Json.of_string s = Ok v) in
  let rejected s = Alcotest.(check bool) s true (Result.is_error (Json.of_string s)) in
  ok " {\"a\" : [1, -2, null], \"b\":\"\\u00e9\\/\"}\r"
    Json.(Obj [ ("a", List [ Int 1; Int (-2); Null ]); ("b", String "\xc3\xa9/") ]);
  ok "{}" (Json.Obj []);
  ok "[]" (Json.List []);
  List.iter rejected
    [
      ""; "{} x"; "{\"a\":1,}"; "[1 2]"; "\"\\u0_41\""; "\"\\u00"; "\"abc"; "\"\\q\""; "1.5";
      "true"; "-"; "4611686018427387904"; "nul"; "{\"a\"}";
    ];
  Alcotest.(check bool) "field lookup" true
    (Json.field "k" (Json.Obj [ ("k", Json.String "x") ]) = Some (Json.String "x"));
  Alcotest.(check bool) "field of a non-object" true (Json.field "k" (Json.List []) = None)

let json_gen =
  QCheck.Gen.(
    let str = string_size ~gen:char (int_bound 12) in
    let int = oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ] in
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ return Json.Null; map (fun i -> Json.Int i) int; map (fun s -> Json.String s) str ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n - 1))));
                 (1, map (fun l -> Json.Obj l) (list_size (int_bound 4) (pair str (self (n - 1)))));
               ]))

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json of_string (to_string v) = Ok v"
    (QCheck.make json_gen ~print:Json.to_string)
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let parse_total s =
  match Json.of_string s with
  | _ -> true
  | exception e -> QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e)

let prop_json_random_bytes =
  QCheck.Test.make ~count:500 ~name:"json of_string never raises on random bytes"
    QCheck.(string_of_size (Gen.int_bound 64))
    parse_total

(* Truncations and single-byte flips of valid renderings. *)
let prop_json_mutated =
  QCheck.Test.make ~count:500 ~name:"json of_string never raises on damaged values"
    QCheck.(
      triple (make json_gen ~print:Json.to_string) (make Gen.nat) (make Gen.(int_range 1 255)))
    (fun (v, pos, x) ->
      let s = Json.to_string v in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor x);
      parse_total (String.sub s 0 pos) && parse_total (Bytes.to_string b))

let tests =
  [
    Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
    Alcotest.test_case "counter handles share state" `Quick test_counter_handles_are_shared;
    Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
    Alcotest.test_case "histogram bucket edges (0, max_int)" `Quick test_bucket_edges;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "merge sums counters" `Quick test_merge_counters_sum;
    Alcotest.test_case "merge promotes gauges to distributions" `Quick
      test_merge_gauge_distribution;
    Alcotest.test_case "merge_all is order- and association-free" `Quick
      test_merge_all_reversed_order_identical;
    Alcotest.test_case "merge adds histograms bucket-wise" `Quick test_merge_histograms;
    Alcotest.test_case "merge identity and empty histograms" `Quick test_merge_empty_identity;
    Alcotest.test_case "merge_all folds every operand" `Quick
      test_merge_all_associative_on_counters;
    Alcotest.test_case "span concat" `Quick test_span_concat;
    Alcotest.test_case "trace ring overflow" `Quick test_trace_ring_overflow;
    Alcotest.test_case "typed trace query" `Quick test_trace_typed_query;
    Alcotest.test_case "span lifecycle and phases" `Quick test_span_lifecycle;
    Alcotest.test_case "reopen allowed once after close" `Quick test_span_reopen_after_close;
    Alcotest.test_case "MTTR report" `Quick test_mttr_report;
    Alcotest.test_case "quantile edges" `Quick test_quantile_edges;
    Alcotest.test_case "quantile two-point distribution" `Quick test_quantile_two_point;
    Alcotest.test_case "quantile uniform within bucket width" `Quick test_quantile_uniform;
    Alcotest.test_case "quantile merge consistency" `Quick test_quantile_merge_consistent;
    Alcotest.test_case "JSONL export" `Quick test_export_jsonl;
    Alcotest.test_case "JSONL export golden" `Quick test_export_golden;
    Alcotest.test_case "json escaping" `Quick test_json_escape;
    Alcotest.test_case "json parse and reject" `Quick test_json_parse;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_random_bytes;
    QCheck_alcotest.to_alcotest prop_json_mutated;
  ]
