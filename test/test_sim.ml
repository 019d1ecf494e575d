(* Tests for lib/sim: event ordering, cancellation, determinism of the
   RNG, trace querying, and heap properties. *)

module Engine = Resilix_sim.Engine
module Time = Resilix_sim.Time
module Heap = Resilix_sim.Heap
module Rng = Resilix_sim.Rng
module Trace = Resilix_sim.Trace

let test_event_ordering () =
  let engine = Engine.create () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  ignore (Engine.schedule engine ~after:(Time.usec 30) (mark "c"));
  ignore (Engine.schedule engine ~after:(Time.usec 10) (mark "a"));
  ignore (Engine.schedule engine ~after:(Time.usec 20) (mark "b"));
  Engine.run engine;
  Alcotest.(check (list string)) "fires by time" [ "a"; "b"; "c" ] (List.rev !order);
  Alcotest.(check int) "clock at last event" 30 (Engine.now engine)

let test_fifo_ties () =
  let engine = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~after:(Time.usec 5) (fun () -> order := i :: !order))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "same-time events fire FIFO" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule engine ~after:(Time.usec 10) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run engine;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_run_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~after:(Time.msec 1) (fun () -> incr fired));
  ignore (Engine.schedule engine ~after:(Time.msec 5) (fun () -> incr fired));
  Engine.run engine ~until:(Time.msec 2);
  Alcotest.(check int) "only events before the bound" 1 !fired;
  Alcotest.(check int) "clock advanced exactly to bound" (Time.msec 2) (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "remaining events fire later" 2 !fired

(* Cancellation edge cases: a handle stays inert after its event has
   fired, and cancelling twice is as harmless as cancelling once. *)
let test_cancel_edge_cases () =
  let engine = Engine.create () in
  let fired = ref 0 in
  let h = Engine.schedule engine ~after:(Time.usec 10) (fun () -> incr fired) in
  Engine.run engine;
  Alcotest.(check int) "event fired" 1 !fired;
  Engine.cancel h;
  Engine.cancel h;
  ignore (Engine.schedule engine ~after:(Time.usec 10) (fun () -> incr fired));
  Engine.run engine;
  Alcotest.(check int) "cancel after firing cannot reach later events" 2 !fired;
  let h2 = Engine.schedule engine ~after:(Time.usec 10) (fun () -> incr fired) in
  Engine.cancel h2;
  Engine.cancel h2;
  Engine.run engine;
  Alcotest.(check int) "double-cancel is a single cancel" 2 !fired

(* [run ~until] leaves the clock exactly at the bound — whether the
   queue still holds later events, is empty, or never had any. *)
let test_run_until_exact_clock () =
  let engine = Engine.create () in
  Engine.run engine ~until:(Time.usec 70);
  Alcotest.(check int) "empty queue still advances to the bound" 70 (Engine.now engine);
  ignore (Engine.schedule engine ~after:(Time.usec 5) (fun () -> ()));
  Engine.run engine ~until:(Time.usec 100);
  Alcotest.(check int) "drained queue advances to the bound" 100 (Engine.now engine);
  ignore (Engine.schedule engine ~after:(Time.usec 50) (fun () -> ()));
  Engine.run engine ~until:(Time.usec 120);
  Alcotest.(check int) "later events do not pull the clock past" 120 (Engine.now engine);
  Alcotest.(check int) "the late event is still pending" 1 (Engine.pending engine)

let test_nested_schedule () =
  let engine = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule engine ~after:(Time.usec 10) (fun () ->
         times := Engine.now engine :: !times;
         ignore
           (Engine.schedule engine ~after:(Time.usec 7) (fun () ->
                times := Engine.now engine :: !times))));
  Engine.run engine;
  Alcotest.(check (list int)) "events may schedule events" [ 10; 17 ] (List.rev !times)

let test_schedule_past_rejected () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~after:(Time.usec 10) (fun () -> ()));
  Engine.run engine;
  Alcotest.check_raises "scheduling in the past fails" (Invalid_argument "dummy")
    (fun () ->
      try ignore (Engine.schedule_at engine ~at:(Time.usec 5) (fun () -> ())) with
      | Invalid_argument _ -> raise (Invalid_argument "dummy"))

let test_rng_determinism () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let seq_a = List.init 100 (fun _ -> Rng.int a 1000) in
  let seq_b = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" seq_a seq_b;
  let c = Rng.create ~seed:43 in
  let seq_c = List.init 100 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (seq_a <> seq_c)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let seq_child = List.init 50 (fun _ -> Rng.int child 100) in
  let seq_parent = List.init 50 (fun _ -> Rng.int parent 100) in
  Alcotest.(check bool) "split streams differ" true (seq_child <> seq_parent)

(* Hierarchical seeding: derive is a pure function of (seed, index),
   so a child stream cannot depend on how many siblings exist or in
   which order they are derived — the property the campaign runner's
   per-trial seeding rests on. *)
let test_rng_derive_order_independent () =
  let forward = List.init 20 (fun i -> Rng.derive ~seed:42 ~index:i) in
  let backward = List.rev (List.init 20 (fun i -> Rng.derive ~seed:42 ~index:(19 - i))) in
  Alcotest.(check (list int)) "derivation order is irrelevant" forward backward;
  (* Deriving fewer or more siblings changes nothing for index 3. *)
  let alone = Rng.derive ~seed:42 ~index:3 in
  Alcotest.(check int) "sibling count is irrelevant" (List.nth forward 3) alone

let test_rng_derive_streams_independent () =
  (* Child streams pairwise differ, and differ from the parent's own
     stream. *)
  let stream_of seed =
    let r = Rng.create ~seed in
    List.init 20 (fun _ -> Rng.int r 1_000_000)
  in
  let parent = stream_of 42 in
  let children = List.init 8 (fun i -> stream_of (Rng.derive ~seed:42 ~index:i)) in
  List.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "child %d differs from parent" i) true (c <> parent))
    children;
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "children %d and %d differ" i j)
              true (a <> b))
        children)
    children;
  (* No collisions among a large block of derived seeds. *)
  let seen = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace seen (Rng.derive ~seed:7 ~index:i) ()
  done;
  Alcotest.(check int) "4096 derived seeds, no collision" 4096 (Hashtbl.length seen);
  Alcotest.check_raises "negative index rejected" (Invalid_argument "Rng.derive: negative index")
    (fun () -> ignore (Rng.derive ~seed:1 ~index:(-1)))

(* The DST explorer seeds run [i] with [derive ~seed ~index:i]: no
   collisions may exist among the (seed, index) pairs it uses —
   adjacent indices, and indices far apart. *)
let test_rng_derive_collision_free () =
  List.iter
    (fun seed ->
      for i = 0 to 63 do
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: children %d and %d differ" seed i (i + 1))
          true
          (Rng.derive ~seed ~index:i <> Rng.derive ~seed ~index:(i + 1))
      done)
    [ 0; 1; 42; 7; max_int ];
  let far = [ 0; 1; 1000; 1_000_000; 1 lsl 30; 1 lsl 40; 1 lsl 60 ] in
  let children = List.map (fun i -> Rng.derive ~seed:7 ~index:i) far in
  Alcotest.(check int)
    "distant indices stay collision-free"
    (List.length far)
    (List.length (List.sort_uniq compare children))

(* Child seeds are part of the repro-file contract: a repro records
   the derived seed, so derive must never change across refactors.
   These values pin the current splitmix64 derivation. *)
let test_rng_derive_stability () =
  let pins =
    [
      (42, 0, 1773080229305530473);
      (42, 1, 2958219263312191191);
      (42, 2, 3069497704473277141);
      (7, 1_000_000, 4535786310112445390);
      (7, 1 lsl 40, 834295082196018886);
    ]
  in
  List.iter
    (fun (seed, index, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "derive ~seed:%d ~index:%d" seed index)
        expected (Rng.derive ~seed ~index))
    pins

(* ------------------------------------------------------------------ *)
(* Tie-break policies and the decision trace                           *)
(* ------------------------------------------------------------------ *)

let firing_order policy =
  let engine = Engine.create ~policy () in
  let order = ref [] in
  for i = 1 to 6 do
    ignore (Engine.schedule engine ~after:(Time.usec 5) (fun () -> order := i :: !order))
  done;
  Engine.run engine;
  (List.rev !order, Engine.decisions engine)

let test_policy_fifo_records_nothing () =
  let order, decisions = firing_order Engine.Fifo in
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5; 6 ] order;
  Alcotest.(check int) "FIFO records no decisions" 0 (Array.length decisions)

let test_policy_seeded_permutation () =
  let order_a, decisions = firing_order (Engine.Seeded 9) in
  let order_b, _ = firing_order (Engine.Seeded 9) in
  Alcotest.(check (list int)) "same seed, same schedule" order_a order_b;
  Alcotest.(check (list int))
    "a permutation of the same events"
    [ 1; 2; 3; 4; 5; 6 ]
    (List.sort compare order_a);
  Alcotest.(check bool) "choice points were recorded" true (Array.length decisions > 0);
  (* Different seeds must be able to produce different schedules. *)
  let distinct =
    List.sort_uniq compare (List.init 16 (fun s -> fst (firing_order (Engine.Seeded s))))
  in
  Alcotest.(check bool) "seeds explore multiple schedules" true (List.length distinct > 1)

let test_policy_scripted_replays () =
  let order, decisions = firing_order (Engine.Seeded 9) in
  let replayed, rerecorded = firing_order (Engine.Scripted decisions) in
  Alcotest.(check (list int)) "scripted replay reproduces the schedule" order replayed;
  Alcotest.(check (list int))
    "replay re-records the same trace"
    (Array.to_list decisions) (Array.to_list rerecorded)

let test_policy_scripted_fallback () =
  (* An exhausted or out-of-range script degrades to FIFO, clamped. *)
  let order, _ = firing_order (Engine.Scripted [||]) in
  Alcotest.(check (list int)) "empty script is FIFO" [ 1; 2; 3; 4; 5; 6 ] order;
  let order, rerecorded = firing_order (Engine.Scripted [| 99 |]) in
  (match order with
  | first :: _ -> Alcotest.(check int) "out-of-range choice clamps to last" 6 first
  | [] -> Alcotest.fail "no events fired");
  Alcotest.(check bool)
    "the clamped choice is what gets recorded" true
    (Array.length rerecorded > 0 && rerecorded.(0) = 5)

(* Only real choice points (>= 2 live same-instant candidates) enter
   the trace: cancelled events and singletons are not decisions. *)
let test_policy_trace_is_compact () =
  let engine = Engine.create ~policy:(Engine.Seeded 3) () in
  ignore (Engine.schedule engine ~after:(Time.usec 1) (fun () -> ()));
  ignore (Engine.schedule engine ~after:(Time.usec 2) (fun () -> ()));
  let h = Engine.schedule engine ~after:(Time.usec 3) (fun () -> ()) in
  ignore (Engine.schedule engine ~after:(Time.usec 3) (fun () -> ()));
  Engine.cancel h;
  Engine.run engine;
  Alcotest.(check int) "no k>=2 choice ever arose" 0 (Array.length (Engine.decisions engine))

(* The engine-policy regression for the pooled-representation
   refactor: firing orders and decision traces below were captured
   from the seed (boxed-entry, list-based) engine at commit a108f84.
   They are part of the repro-file contract — a recorded schedule must
   replay identically forever — so a representation change that
   shifts any of these values is a bug, not a re-pin. *)
let pin_scenario policy =
  let engine = Engine.create ~policy () in
  let order = ref [] in
  let mark tag () = order := tag :: !order in
  for i = 1 to 8 do
    ignore (Engine.schedule engine ~after:(if i mod 2 = 0 then 10 else 20) (mark i))
  done;
  let h = Engine.schedule engine ~after:10 (mark 99) in
  Engine.cancel h;
  ignore
    (Engine.schedule engine ~after:10 (fun () ->
         ignore (Engine.schedule engine ~after:0 (mark 50))));
  Engine.run engine;
  (List.rev !order, Array.to_list (Engine.decisions engine))

let test_policy_pinned_traces () =
  let order9, dec9 = pin_scenario (Engine.Seeded 9) in
  Alcotest.(check (list int)) "seeded 9 order" [ 8; 6; 4; 2; 50; 3; 7; 5; 1 ] order9;
  Alcotest.(check (list int)) "seeded 9 decisions" [ 4; 3; 2; 1; 0; 1; 2; 1 ] dec9;
  let order42, dec42 = pin_scenario (Engine.Seeded 42) in
  Alcotest.(check (list int)) "seeded 42 order" [ 8; 6; 50; 2; 4; 3; 7; 1; 5 ] order42;
  Alcotest.(check (list int)) "seeded 42 decisions" [ 3; 3; 2; 2; 0; 1; 2; 0 ] dec42;
  let replayed, rerecorded = pin_scenario (Engine.Scripted (Array.of_list dec9)) in
  Alcotest.(check (list int)) "scripted replay order" order9 replayed;
  Alcotest.(check (list int)) "scripted replay re-records" dec9 rerecorded

(* Same pin at storm scale: 40 self-rescheduling timers over 7
   colliding instants.  The order-sensitive checksum pins the complete
   schedule without spelling out 400 events. *)
let pin_storm policy =
  let engine = Engine.create ~policy () in
  let fired = ref 0 in
  let sum = ref 0 in
  let total = 400 in
  let timers = 40 in
  let rec tick i () =
    incr fired;
    sum := (!sum * 31) + i + Engine.now engine;
    if !fired + timers <= total then
      ignore (Engine.schedule engine ~after:(1 + ((i + !fired) mod 7)) (tick i))
  in
  for i = 0 to timers - 1 do
    ignore (Engine.schedule engine ~after:(1 + (i mod 7)) (tick i))
  done;
  Engine.run engine;
  (!fired, !sum, Array.to_list (Engine.decisions engine))

let test_policy_pinned_storm () =
  let fired, sum, decisions = pin_storm (Engine.Seeded 7) in
  Alcotest.(check int) "storm fires every event" 400 fired;
  Alcotest.(check int) "storm schedule checksum (seeded 7)" 1619155989714001184 sum;
  Alcotest.(check int) "storm decision count" 356 (List.length decisions);
  Alcotest.(check (list int))
    "storm decision prefix"
    [ 2; 0; 0; 2; 1; 1; 4; 0; 1; 1 ]
    (List.filteri (fun i _ -> i < 10) decisions);
  let fired_f, sum_f, _ = pin_storm Engine.Fifo in
  Alcotest.(check int) "fifo storm fires every event" 400 fired_f;
  Alcotest.(check int) "storm schedule checksum (fifo)" (-4518856617332645823) sum_f

(* Retained events from [subsystem] whose rendered message is [text]. *)
let logged trace ~subsystem text =
  Trace.query trace ~pred:(fun e -> e.Trace.subsystem = subsystem && Trace.message e = text)

let times = List.map (fun e -> e.Trace.time)

let test_trace_query () =
  let trace = Trace.create () in
  Trace.emit trace ~now:(Time.usec 5) Trace.Info "rs" "restarting %s (attempt %d)" "eth" 2;
  Trace.emit trace ~now:(Time.usec 9) Trace.Warn "inet" "driver %s down" "eth";
  Alcotest.(check (list int)) "one rs event, time preserved" [ 5 ]
    (times (logged trace ~subsystem:"rs" "restarting eth (attempt 2)"));
  Alcotest.(check (list int)) "no cross-subsystem match" []
    (times (logged trace ~subsystem:"rs" "driver eth down"))

let test_trace_capacity () =
  let trace = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.emit trace ~now:(Time.usec i) Trace.Debug "x" "event %d" i
  done;
  let evs = Trace.events trace in
  Alcotest.(check int) "bounded retention" 3 (List.length evs);
  Alcotest.(check string) "oldest dropped" "event 3" (Trace.message (List.hd evs))

(* Every read path must agree on "the newest [capacity] events, oldest
   first" after the ring wraps — not just [events]. *)
let test_trace_wraparound_reads () =
  let trace = Trace.create ~capacity:3 () in
  for i = 1 to 8 do
    Trace.emit trace ~now:(Time.usec i) Trace.Debug "x" "event %d" i
  done;
  Alcotest.(check (list string)) "events: newest capacity, in order"
    [ "event 6"; "event 7"; "event 8" ]
    (List.map Trace.message (Trace.events trace));
  Alcotest.(check (list string)) "query sees the same window"
    [ "event 6"; "event 7"; "event 8" ]
    (List.map Trace.message (Trace.query trace ~pred:(fun _ -> true)));
  Alcotest.(check (list int)) "query misses overwritten events" []
    (times (logged trace ~subsystem:"x" "event 5"));
  Alcotest.(check (list int)) "query sees the oldest retained event" [ 6 ]
    (times (logged trace ~subsystem:"x" "event 6"))

(* The growth-then-wrap boundary: the buffer doubles while filling,
   then wraps only once the configured capacity is reached. *)
let test_trace_growth_then_wrap () =
  let trace = Trace.create ~capacity:100 () in
  for i = 1 to 250 do
    Trace.emit trace ~now:(Time.usec i) Trace.Debug "x" "event %d" i
  done;
  let evs = Trace.events trace in
  Alcotest.(check int) "capacity events retained" 100 (List.length evs);
  Alcotest.(check string) "window starts at 151" "event 151" (Trace.message (List.hd evs));
  Alcotest.(check string) "window ends at 250"
    "event 250"
    (Trace.message (List.nth evs 99));
  Alcotest.(check int) "slots never exceed capacity" 100 (Trace.allocated_slots trace)

let test_trace_capacity_one () =
  let trace = Trace.create ~capacity:1 () in
  for i = 1 to 4 do
    Trace.emit trace ~now:(Time.usec i) Trace.Debug "x" "event %d" i
  done;
  Alcotest.(check (list string)) "only the newest survives" [ "event 4" ]
    (List.map Trace.message (Trace.events trace))

(* [clear] must reset contents without dropping the ring's allocation
   (mirrors [Heap.clear]): a trace cleared every simulated boot would
   otherwise re-grow its buffer from scratch each time. *)
let test_trace_clear_keeps_allocation () =
  let trace = Trace.create ~capacity:8 () in
  for i = 1 to 8 do
    Trace.emit trace ~now:(Time.usec i) Trace.Debug "x" "event %d" i
  done;
  let slots = Trace.allocated_slots trace in
  Trace.clear trace;
  Alcotest.(check (list string)) "cleared trace is empty" []
    (List.map Trace.message (Trace.events trace));
  Alcotest.(check int) "allocation retained across clear" slots (Trace.allocated_slots trace);
  Trace.emit trace ~now:(Time.usec 99) Trace.Debug "x" "after clear";
  Alcotest.(check (list string)) "trace usable after clear" [ "after clear" ]
    (List.map Trace.message (Trace.events trace))

(* Space-leak regression for [clear], like the Heap one: a cleared
   event's payload must be collectable even while the trace (and its
   retained buffer) stays alive — clear must blank the slots, not just
   reset the cursors. *)
let test_trace_clear_releases_payloads () =
  let trace = Trace.create ~capacity:4 () in
  let live = Weak.create 1 in
  let payload = String.init 64 (fun i -> Char.chr (65 + (i mod 26))) in
  Weak.set live 0 (Some payload);
  (* emit_event stores the payload record itself (emit would format a
     copy), so the slot really does reference this string. *)
  Trace.emit_event trace ~now:(Time.usec 1) "x" (Resilix_obs.Event.Log { text = payload });
  Trace.clear trace;
  Gc.full_major ();
  Alcotest.(check bool) "cleared payload is collectable" true (Weak.get live 0 = None)

(* Property: popping the heap yields keys in nondecreasing order, with
   FIFO sequence order inside equal keys. *)
let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops sorted by (key, seq)" ~count:300
    QCheck.(list (int_bound 50))
    (fun keys ->
      let h = Heap.create ~dummy:min_int () in
      List.iteri (fun seq key -> Heap.push h ~key ~seq key) keys;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (k, s, _) -> drain ((k, s) :: acc)
      in
      let out = drain [] in
      let rec ordered = function
        | (k1, s1) :: ((k2, s2) :: _ as rest) ->
            (k1 < k2 || (k1 = k2 && s1 < s2)) && ordered rest
        | [ _ ] | [] -> true
      in
      List.length out = List.length keys && ordered out)

(* Model-based property: an interleaved stream of push/pop/clear
   operations behaves exactly like a sorted-list reference model.
   Keys are drawn from a tiny range so duplicate keys (seq
   tie-breaking) dominate, and ops 10/11 inject clears. *)
let prop_heap_model =
  QCheck.Test.make ~name:"heap matches sorted-list model (push/pop/clear)" ~count:300
    QCheck.(list (int_bound 11))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) () in
      let model = ref [] (* sorted by (key, seq) *) in
      let seq = ref 0 in
      let ok = ref true in
      let check b = if not b then ok := false in
      let insert key s v =
        let rec go = function
          | [] -> [ (key, s, v) ]
          | ((k2, s2, _) as hd) :: tl ->
              if key < k2 || (key = k2 && s < s2) then (key, s, v) :: hd :: tl
              else hd :: go tl
        in
        model := go !model
      in
      List.iter
        (fun op ->
          if op <= 7 then begin
            (* push with key in 0..3: collisions are the common case *)
            let key = op land 3 in
            incr seq;
            let v = (key * 1000) + !seq in
            Heap.push h ~key ~seq:!seq v;
            insert key !seq v
          end
          else if op <= 9 then begin
            (match (Heap.pop h, !model) with
            | None, [] -> ()
            | Some (k, s, v), (mk, ms, mv) :: rest ->
                model := rest;
                check (k = mk && s = ms && v = mv)
            | Some _, [] | None, _ :: _ -> check false);
            check (Heap.length h = List.length !model)
          end
          else begin
            Heap.clear h;
            model := [];
            check (Heap.is_empty h)
          end)
        ops;
      (* Drain what is left; the tail must match the model exactly. *)
      let rec drain () =
        match (Heap.pop h, !model) with
        | None, [] -> ()
        | Some (k, s, v), (mk, ms, mv) :: rest ->
            model := rest;
            check (k = mk && s = ms && v = mv);
            drain ()
        | Some _, [] | None, _ :: _ -> check false
      in
      drain ();
      !ok)

(* Space-leak regression: a popped value must be collectable even
   while the heap object itself stays alive (the seed heap kept the
   popped entry referenced through [data.(size)]). *)
let test_heap_pop_releases_values () =
  let h = Heap.create ~dummy:[||] () in
  let live = Weak.create 3 in
  for i = 0 to 2 do
    let v = Array.make 10 i in
    Weak.set live i (Some v);
    Heap.push h ~key:i ~seq:i v
  done;
  ignore (Heap.pop h);
  ignore (Heap.pop h);
  Heap.clear h;
  Gc.full_major ();
  for i = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "popped/cleared value %d is collectable" i)
      true
      (Weak.get live i = None)
  done;
  (* the heap is still usable afterwards *)
  Heap.push h ~key:7 ~seq:1 [| 7 |];
  match Heap.pop h with
  | Some (7, 1, [| 7 |]) -> ()
  | _ -> Alcotest.fail "heap unusable after clear"

let prop_engine_no_time_travel =
  QCheck.Test.make ~name:"engine clock is monotone" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 30) (int_bound 1000))
    (fun delays ->
      let engine = Engine.create () in
      let monotone = ref true in
      let last = ref 0 in
      List.iter
        (fun d ->
          ignore
            (Engine.schedule engine ~after:d (fun () ->
                 if Engine.now engine < !last then monotone := false;
                 last := Engine.now engine)))
        delays;
      Engine.run engine;
      !monotone)

let tests =
  [
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "FIFO tie-breaking" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "cancellation edge cases" `Quick test_cancel_edge_cases;
    Alcotest.test_case "run ~until" `Quick test_run_until;
    Alcotest.test_case "run ~until exact clock" `Quick test_run_until_exact_clock;
    Alcotest.test_case "nested scheduling" `Quick test_nested_schedule;
    Alcotest.test_case "no scheduling in the past" `Quick test_schedule_past_rejected;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng derive is order/sibling independent" `Quick
      test_rng_derive_order_independent;
    Alcotest.test_case "rng derived streams independent" `Quick
      test_rng_derive_streams_independent;
    Alcotest.test_case "rng derive collision-free" `Quick test_rng_derive_collision_free;
    Alcotest.test_case "rng derive pinned values" `Quick test_rng_derive_stability;
    Alcotest.test_case "policy: fifo records nothing" `Quick test_policy_fifo_records_nothing;
    Alcotest.test_case "policy: seeded permutation" `Quick test_policy_seeded_permutation;
    Alcotest.test_case "policy: scripted replay" `Quick test_policy_scripted_replays;
    Alcotest.test_case "policy: scripted fallback/clamp" `Quick test_policy_scripted_fallback;
    Alcotest.test_case "policy: trace is compact" `Quick test_policy_trace_is_compact;
    Alcotest.test_case "policy: pinned decision traces" `Quick test_policy_pinned_traces;
    Alcotest.test_case "policy: pinned storm checksum" `Quick test_policy_pinned_storm;
    Alcotest.test_case "heap: pop releases values" `Quick test_heap_pop_releases_values;
    Alcotest.test_case "trace query" `Quick test_trace_query;
    Alcotest.test_case "trace capacity bound" `Quick test_trace_capacity;
    Alcotest.test_case "trace wraparound reads" `Quick test_trace_wraparound_reads;
    Alcotest.test_case "trace growth then wrap" `Quick test_trace_growth_then_wrap;
    Alcotest.test_case "trace capacity one" `Quick test_trace_capacity_one;
    Alcotest.test_case "trace clear keeps allocation" `Quick test_trace_clear_keeps_allocation;
    Alcotest.test_case "trace clear releases payloads" `Quick test_trace_clear_releases_payloads;
    QCheck_alcotest.to_alcotest prop_heap_sorted;
    QCheck_alcotest.to_alcotest prop_heap_model;
    QCheck_alcotest.to_alcotest prop_engine_no_time_travel;
  ]
