(* Tests for lib/harness and the determinism contract it rests on:
   same-seed boots replay identically, the campaign runner preserves
   trial order and propagates failures, and the experiment sweeps are
   byte-identical whether they run on one domain or several. *)

module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Time = Resilix_sim.Time
module Metrics = Resilix_obs.Metrics
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign
module E = Resilix_experiments

let mb = 1024 * 1024

let contains ~sub s =
  let n = String.length sub and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Same seed, same machine                                             *)
(* ------------------------------------------------------------------ *)

(* Boot a full machine, crash the Ethernet driver once, and let the
   reincarnation server recover it — enough activity to touch the
   kernel, RS, DS, INET and the driver. *)
let boot_and_exercise seed =
  let opts = { System.default_opts with System.seed } in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_rtl8139 () ];
  (match System.kill_service_once t ~target:"eth.rtl8139" with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("kill failed: " ^ Resilix_proto.Errno.to_string e));
  System.run ~until:(Time.msec 1500) t;
  t

let test_same_seed_same_run () =
  let a = boot_and_exercise 42 and b = boot_and_exercise 42 in
  let ev t = Trace.events t.System.trace in
  Alcotest.(check int)
    "same number of trace events"
    (List.length (ev a))
    (List.length (ev b));
  (* Event payloads are pure data, so the whole streams must be
     structurally equal — times, levels, subsystems and operands. *)
  Alcotest.(check bool) "identical trace streams" true (ev a = ev b);
  let snap t = Metrics.snapshot ~at:(Engine.now t.System.engine) t.System.metrics in
  Alcotest.(check bool) "identical metric snapshots" true (snap a = snap b);
  Alcotest.(check bool) "identical observability dumps" true
    (System.obs_lines ~label:"det" a = System.obs_lines ~label:"det" b);
  (* Guard against the comparison being vacuous: the run really did
     produce events, activity and a completed recovery. *)
  Alcotest.(check bool) "trace is non-empty" true (ev a <> []);
  Alcotest.(check bool) "a restart was recorded" true
    (List.exists
       (fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Restart { component; _ } -> component = "eth.rtl8139"
         | _ -> false)
       (ev a));
  Alcotest.(check bool) "counters are non-trivial" true
    (List.exists (fun (_, v) -> v > 0) (snap a).Metrics.counters)

(* ------------------------------------------------------------------ *)
(* Campaign runner semantics                                           *)
(* ------------------------------------------------------------------ *)

let test_campaign_preserves_order () =
  let trials =
    List.init 17 (fun i ->
        Trial.make ~name:(Printf.sprintf "t%d" i) ~seed:i (fun () ->
            (* Skew the work so late trials tend to finish first under
               parallel execution; order must still be input order. *)
            let spin = ref 0 in
            for _ = 1 to (17 - i) * 10_000 do
              incr spin
            done;
            ignore !spin;
            i * i))
  in
  let expect = List.init 17 (fun i -> i * i) in
  Alcotest.(check (list int))
    "jobs=1 in input order" expect
    Campaign.(values (run ~jobs:1 trials));
  Alcotest.(check (list int))
    "jobs=4 in input order" expect
    Campaign.(values (run ~jobs:4 trials));
  Alcotest.(check (list int))
    "jobs beyond trial count is clamped" expect
    Campaign.(values (run ~jobs:64 trials));
  let r = Campaign.run ~jobs:3 trials in
  Alcotest.(check int) "no failures reported" 0 (List.length r.Campaign.failures);
  Alcotest.(check (list (pair string int)))
    "outcomes pair up with trial names in input order"
    (List.init 17 (fun i -> (Printf.sprintf "t%d" i, i * i)))
    (List.map2
       (fun t o -> (t.Resilix_harness.Trial.name, Result.get_ok o))
       trials r.Campaign.outcomes)

let test_campaign_collects_every_failure () =
  let trials =
    List.init 8 (fun i ->
        Trial.make ~name:(Printf.sprintf "t%d" i) ~seed:i (fun () ->
            if i = 5 then failwith "five";
            if i = 2 then failwith "two";
            i))
  in
  List.iter
    (fun jobs ->
      match Campaign.(values (run ~jobs trials)) with
      | (_ : int list) -> Alcotest.failf "jobs=%d: expected Partial" jobs
      | exception Campaign.Partial failures ->
          Alcotest.(check (list (pair int string)))
            (Printf.sprintf "jobs=%d reports every failed trial, lowest index first" jobs)
            [ (2, "t2"); (5, "t5") ]
            (List.map (fun f -> (f.Campaign.f_index, f.Campaign.f_name)) failures);
          List.iter
            (fun f ->
              Alcotest.(check string)
                "the original exception is preserved"
                (if f.Campaign.f_index = 2 then {|Failure("two")|} else {|Failure("five")|})
                (Printexc.to_string f.Campaign.f_error))
            failures;
          let summary = Campaign.failures_summary failures in
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (Printf.sprintf "summary mentions %S" needle)
                true
                (contains ~sub:needle summary))
            [ "2 trial(s) failed"; "t2"; "t5"; "two"; "five" ])
    [ 1; 4 ];
  (* The run_result record is the non-raising face of the same
     contract: every outcome present, failures listed alongside. *)
  (let r = Campaign.run ~jobs:4 trials in
   Alcotest.(check (list int)) "run reports the same failures" [ 2; 5 ]
     (List.map (fun f -> f.Campaign.f_index) r.Campaign.failures);
   Alcotest.(check int) "every outcome is still present" 8
     (List.length r.Campaign.outcomes);
   Alcotest.(check (list int))
     "successful outcomes are kept despite the failures"
     [ 0; 1; 3; 4; 6; 7 ]
     (List.filter_map Result.to_option r.Campaign.outcomes));
  Alcotest.check_raises "jobs < 1 rejected" (Invalid_argument "Campaign.run: jobs must be >= 1")
    (fun () -> ignore (Campaign.run ~jobs:0 trials))

(* ------------------------------------------------------------------ *)
(* Progress observer                                                   *)
(* ------------------------------------------------------------------ *)

let test_campaign_progress_events () =
  let n = 9 in
  let trials =
    List.init n (fun i -> Trial.make ~name:(Printf.sprintf "t%d" i) ~seed:i (fun () -> i))
  in
  (* jobs=1: events arrive strictly in trial order with an exact
     completed counter. *)
  let seen = ref [] in
  let got = Campaign.(values (run ~jobs:1 ~on_progress:(fun p -> seen := p :: !seen) trials)) in
  Alcotest.(check (list int)) "results unaffected by the observer" (List.init n Fun.id) got;
  let events = List.rev !seen in
  Alcotest.(check int) "one event per trial" n (List.length events);
  List.iteri
    (fun k p ->
      Alcotest.(check int) "sequential events follow trial order" k p.Campaign.p_index;
      Alcotest.(check string) "event names the trial" (Printf.sprintf "t%d" k) p.Campaign.p_name;
      Alcotest.(check int) "completed counts up" (k + 1) p.Campaign.p_completed;
      Alcotest.(check int) "total is the campaign size" n p.Campaign.p_total;
      Alcotest.(check bool) "trial succeeded" false p.Campaign.p_failed;
      Alcotest.(check bool) "elapsed is non-negative" true (p.Campaign.p_elapsed_s >= 0.))
    events;
  (* jobs=4: completion order is scheduling-dependent, but every trial
     reports exactly once and the completed counters are a permutation
     of 1..n. *)
  let seen = ref [] in
  let got = Campaign.(values (run ~jobs:4 ~on_progress:(fun p -> seen := p :: !seen) trials)) in
  Alcotest.(check (list int)) "parallel results still in input order" (List.init n Fun.id) got;
  let events = !seen in
  Alcotest.(check int) "one event per trial under jobs=4" n (List.length events);
  let sorted_indices = List.sort compare (List.map (fun p -> p.Campaign.p_index) events) in
  Alcotest.(check (list int)) "every trial index reported once" (List.init n Fun.id)
    sorted_indices;
  let sorted_completed = List.sort compare (List.map (fun p -> p.Campaign.p_completed) events) in
  Alcotest.(check (list int))
    "completed counters are a permutation of 1..n"
    (List.init n (fun i -> i + 1))
    sorted_completed;
  (* Failed trials still emit progress, flagged as failures. *)
  let failing =
    List.init 4 (fun i ->
        Trial.make ~name:(Printf.sprintf "f%d" i) ~seed:i (fun () ->
            if i = 1 then failwith "boom";
            i))
  in
  let seen = ref [] in
  (match Campaign.(values (run ~jobs:1 ~on_progress:(fun p -> seen := p :: !seen) failing)) with
  | _ -> Alcotest.fail "expected Partial"
  | exception Campaign.Partial _ -> ());
  Alcotest.(check int) "failures still emit a progress event" 4 (List.length !seen);
  let by_index = List.sort (fun a b -> compare a.Campaign.p_index b.Campaign.p_index) !seen in
  Alcotest.(check (list bool))
    "exactly the failing trial is flagged"
    [ false; true; false; false ]
    (List.map (fun p -> p.Campaign.p_failed) by_index)

(* ------------------------------------------------------------------ *)
(* Parallel sweeps are byte-identical to sequential ones               *)
(* ------------------------------------------------------------------ *)

let collect_obs run =
  let buf = Buffer.create 4096 in
  let rows = run (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n') in
  (rows, Buffer.contents buf)

let test_fig7_jobs_invariant () =
  (* The acceptance criterion for the progress observer: enabling it
     must leave the stdout/JSONL path byte-identical for every job
     count — the observer only ever sees the stderr-side sink.  16 MB
     outlasts the 1-s kill interval, so the sweep includes a recovery. *)
  let sweep jobs =
    collect_obs (fun sink ->
        E.Fig7.run ~jobs
          ~on_progress:(fun (_ : Campaign.progress) -> ())
          ~size:(16 * mb) ~intervals:[ 1 ] ~seed:42 ~obs:sink ())
  in
  let rows1, obs1 = sweep 1 and rows2, obs2 = sweep 2 and rows4, obs4 = sweep 4 in
  Alcotest.(check int) "baseline + one interval" 2 (List.length rows1);
  Alcotest.(check bool) "fig7 rows identical for jobs=1 and jobs=2" true (rows1 = rows2);
  Alcotest.(check bool) "fig7 rows identical for jobs=1 and jobs=4" true (rows1 = rows4);
  Alcotest.(check string) "fig7 observability byte-identical (jobs=2)" obs1 obs2;
  Alcotest.(check string) "fig7 observability byte-identical (jobs=4)" obs1 obs4;
  Alcotest.(check bool) "two-domain sweep emits MTTR reports" true
    (contains ~sub:{|"type":"mttr"|} obs2);
  Alcotest.(check bool) "sweep passes its own integrity check" true (E.Fig7.ok rows1)

let test_sec72_jobs_invariant () =
  let campaign jobs =
    collect_obs (fun sink ->
        E.Sec72.run ~jobs ~faults:200 ~shard_size:50 ~seed:42 ~obs:sink ())
  in
  let o1, obs1 = campaign 1 and o4, obs4 = campaign 4 in
  Alcotest.(check bool) "sec7_2 outcome identical for jobs=1 and jobs=4" true (o1 = o4);
  Alcotest.(check string) "sec7_2 observability byte-identical" obs1 obs4;
  Alcotest.(check int) "every shard injected its share" 200 o1.E.Sec72.injected;
  Alcotest.(check bool) "crash-class split accounts for every crash" true (E.Sec72.ok o1)

let tests =
  [
    Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
    Alcotest.test_case "campaign preserves trial order" `Quick test_campaign_preserves_order;
    Alcotest.test_case "campaign collects every failure" `Quick
      test_campaign_collects_every_failure;
    Alcotest.test_case "campaign progress observer" `Quick test_campaign_progress_events;
    Alcotest.test_case "fig7 sweep is jobs-invariant" `Quick test_fig7_jobs_invariant;
    Alcotest.test_case "sec7_2 campaign is jobs-invariant" `Quick test_sec72_jobs_invariant;
  ]
