(* Tests for lib/dst: fault plans, repro-file round-trips, invariant
   checking, seeded exploration, replay, and trace shrinking.

   The exploration/replay/shrink tests run on a synthetic "toy"
   scenario that drives a bare engine instead of booting a full
   machine, so the whole suite stays instant; the full-machine path is
   exercised by the @dst batch (test/dst) and the CLI. *)

module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Span = Resilix_obs.Span
module Status = Resilix_proto.Status
module Fault = Resilix_vm.Fault
module Fnv = Resilix_checksum.Fnv
module Fault_plan = Resilix_dst.Fault_plan
module Scenario = Resilix_dst.Scenario
module Invariant = Resilix_dst.Invariant
module Repro = Resilix_dst.Repro
module Explore = Resilix_dst.Explore
module Replay = Resilix_dst.Replay
module Corpus = Resilix_dst.Corpus
module Mutate = Resilix_dst.Mutate

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_pure_and_sorted () =
  let gen () =
    Fault_plan.generate ~seed:5 ~targets:[ "a"; "b" ] ~n:12 ~start:100 ~horizon:10_000 ()
  in
  let p1 = gen () and p2 = gen () in
  Alcotest.(check bool) "same seed, same plan" true (p1 = p2);
  Alcotest.(check int) "requested length" 12 (List.length p1);
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Fault_plan.at <= b.Fault_plan.at && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted by time" true (sorted p1);
  List.iter
    (fun e ->
      Alcotest.(check bool) "time in window" true (e.Fault_plan.at >= 100 && e.Fault_plan.at < 10_000);
      Alcotest.(check bool) "known target" true (List.mem e.Fault_plan.target [ "a"; "b" ]))
    p1

let test_plan_inject_prob () =
  let all_kills = Fault_plan.generate ~seed:5 ~targets:[ "a" ] ~n:20 () in
  Alcotest.(check bool) "prob 0 means all kills" true
    (List.for_all (fun e -> e.Fault_plan.action = Fault_plan.Kill) all_kills);
  let all_injects = Fault_plan.generate ~seed:5 ~targets:[ "a" ] ~n:20 ~inject_prob:1.0 () in
  Alcotest.(check bool) "prob 1 means all valid injections" true
    (List.for_all
       (fun e ->
         match e.Fault_plan.action with
         | Fault_plan.Inject i -> i >= 0 && i < Array.length Fault.all
         | Fault_plan.Kill -> false)
       all_injects)

let test_plan_invalid_args () =
  Alcotest.check_raises "negative n" (Invalid_argument "Fault_plan.generate: negative n")
    (fun () -> ignore (Fault_plan.generate ~seed:1 ~targets:[ "a" ] ~n:(-1) ()));
  Alcotest.check_raises "no targets" (Invalid_argument "Fault_plan.generate: no targets")
    (fun () -> ignore (Fault_plan.generate ~seed:1 ~targets:[] ~n:1 ()))

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)
(* ------------------------------------------------------------------ *)

let sample_repro =
  {
    Repro.scenario = "toy";
    seed = 1234567890123;
    bound = 1_000;
    plan =
      [
        { Fault_plan.at = 100; target = "eth.rtl8139"; action = Fault_plan.Kill };
        { Fault_plan.at = 250; target = "eth.dp8390"; action = Fault_plan.Inject 3 };
      ];
    decisions = [| 0; 2; 1 |];
    violations =
      [
        {
          Invariant.v_invariant = "span-completeness";
          (* Exercises the string escaping on the round-trip. *)
          v_detail = "says \"late\"\twith \\ and\nnewline";
        };
      ];
  }

let test_repro_roundtrip () =
  let lines = Repro.to_lines sample_repro in
  Alcotest.(check int) "header + 2 faults + decisions + violation" 5 (List.length lines);
  (match Repro.of_lines lines with
  | Error m -> Alcotest.fail ("round-trip failed: " ^ m)
  | Ok r -> Alcotest.(check bool) "round-trip preserves everything" true (r = sample_repro));
  Alcotest.(check bool) "CRLF line ends still load" true
    (Repro.of_lines (List.map (fun l -> l ^ "\r") lines) = Ok sample_repro)

(* The exact lines, recorded before repros were written through Json. *)
let test_repro_golden () =
  Alcotest.(check (list string))
    "repro lines"
    [
      {|{"type":"dst-repro","version":1,"scenario":"toy","seed":1234567890123,"bound":1000}|};
      {|{"type":"fault","at":100,"target":"eth.rtl8139","action":"kill"}|};
      {|{"type":"fault","at":250,"target":"eth.dp8390","action":"inject","fault":3}|};
      {|{"type":"decisions","values":[0,2,1]}|};
      {|{"type":"violation","invariant":"span-completeness","detail":"says \"late\"\twith \\ and\nnewline"}|};
    ]
    (Repro.to_lines sample_repro)

let test_repro_file_roundtrip () =
  let path = Filename.temp_file "dst-repro" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro.save sample_repro path;
      match Repro.load path with
      | Error m -> Alcotest.fail ("load failed: " ^ m)
      | Ok r -> Alcotest.(check bool) "save/load preserves everything" true (r = sample_repro))

let test_repro_rejects_garbage () =
  let bad lines =
    match Repro.of_lines lines with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty input" true (bad []);
  Alcotest.(check bool) "not a repro header" true (bad [ {|{"type":"fault","at":1}|} ]);
  Alcotest.(check bool) "broken json" true
    (bad [ {|{"type":"dst-repro","version":1,"scenario":"x","seed":|} ]);
  Alcotest.(check bool) "unknown fault action" true
    (bad
       [
         {|{"type":"dst-repro","version":1,"scenario":"x","seed":1,"bound":2}|};
         {|{"type":"fault","at":1,"target":"t","action":"frobnicate"}|};
       ]);
  Alcotest.(check bool) "trailing bytes after the object" true
    (bad [ {|{"type":"dst-repro","version":1,"scenario":"x","seed":1,"bound":2} trailing junk|} ])

(* Unreadable paths are load errors, not exceptions: a directory given
   as a repro file, or a directory named like a corpus entry. *)
let test_repro_load_io_errors () =
  let dir = Filename.temp_file "dst-io" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir "d.jsonl") 0o755;
  Fun.protect
    ~finally:(fun () ->
      Sys.rmdir (Filename.concat dir "d.jsonl");
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "directory as repro" true (Result.is_error (Repro.load dir));
      Alcotest.(check bool) "directory entry in a corpus" true
        (Result.is_error (Corpus.load ~dir)))

(* The parser must reverse anything a standard JSON writer emits:
   code points above 0xFF decode to their UTF-8 bytes (a historical
   bug truncated them with [land 0xff]) and surrogate pairs combine
   into supplementary code points. *)
let test_repro_unicode_escapes () =
  let detail_of lines =
    match Repro.of_lines lines with
    | Ok { Repro.violations = [ v ]; _ } -> v.Invariant.v_detail
    | Ok _ -> Alcotest.fail "expected exactly one violation"
    | Error m -> Alcotest.fail m
  in
  let header = {|{"type":"dst-repro","version":1,"scenario":"x","seed":1,"bound":2}|} in
  let with_detail d =
    [ header; Printf.sprintf {|{"type":"violation","invariant":"i","detail":"%s"}|} d ]
  in
  Alcotest.(check string) "BMP code point decodes to UTF-8" "\xc5\x82"
    (detail_of (with_detail {|\u0142|}));
  Alcotest.(check string) "surrogate pair combines" "\xf0\x9f\x98\x80"
    (detail_of (with_detail {|\ud83d\ude00|}));
  Alcotest.(check string) "control escape stays one byte" "\x01"
    (detail_of (with_detail {|\u0001|}));
  let rejected d =
    match Repro.of_lines (with_detail d) with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "lone high surrogate rejected" true (rejected {|\ud83d|});
  Alcotest.(check bool) "lone low surrogate rejected" true (rejected {|\ude00|});
  Alcotest.(check bool) "high surrogate + non-low rejected" true (rejected {|\ud83dA|});
  Alcotest.(check bool) "truncated hex rejected" true (rejected {|\u00|});
  Alcotest.(check bool) "non-hex digit rejected" true (rejected {|\u0_41|})

(* Property: serialization round-trips for adversarial detail strings
   — full byte range, embedded quotes, backslashes, newlines. *)
let prop_repro_roundtrip =
  QCheck.Test.make ~count:200 ~name:"repro save -> load -> save round-trip"
    QCheck.(pair small_string string)
    (fun (target, detail) ->
      let r =
        {
          sample_repro with
          Repro.plan = [ { Fault_plan.at = 7; target; action = Fault_plan.Kill } ];
          violations = [ { Invariant.v_invariant = "data-integrity"; v_detail = detail } ];
        }
      in
      match Repro.of_lines (Repro.to_lines r) with
      | Error _ -> false
      | Ok r' -> r' = r && Repro.to_lines r' = Repro.to_lines r)

(* Repro files are outside input: random bytes, truncations and
   single-byte flips of valid lines give an [Error] or a value, never an
   exception. *)
let of_lines_total lines =
  match Repro.of_lines lines with
  | _ -> true
  | exception e -> QCheck.Test.fail_reportf "of_lines raised %s" (Printexc.to_string e)

let prop_repro_fuzz =
  QCheck.Test.make ~count:500 ~name:"repro of_lines never raises"
    QCheck.(quad (make Gen.nat) (make Gen.nat) (make Gen.(int_range 1 255)) string)
    (fun (line, pos, x, junk) ->
      let lines = Repro.to_lines sample_repro in
      let i = line mod List.length lines in
      let damage f = List.mapi (fun j l -> if j = i then f l else l) lines in
      let flip l =
        let b = Bytes.of_string l in
        let p = pos mod Bytes.length b in
        Bytes.set_uint8 b p (Bytes.get_uint8 b p lxor x);
        Bytes.to_string b
      in
      of_lines_total (damage flip)
      && of_lines_total (damage (fun l -> String.sub l 0 (pos mod String.length l)))
      && of_lines_total (damage (fun _ -> junk))
      && of_lines_total [ junk ])

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let report ?(completed = true) ?(checksum = true) ?(endpoints = true) ?(applied = 0)
    ?(expected_spans = 0) ?(recoveries = 0) ?(spans = Span.create ()) ?(degraded = [])
    ?(breakers = []) ?storm () =
  {
    Scenario.r_completed = completed;
    r_checksum_ok = checksum;
    r_endpoints_ok = endpoints;
    r_applied = applied;
    r_expected_spans = expected_spans;
    r_recoveries = recoveries;
    r_spans = spans;
    r_end_time = 1_000_000;
    r_decisions = [||];
    r_degraded = degraded;
    r_breakers = breakers;
    r_shape = 0L;
    r_storm = storm;
  }

let names vs = Invariant.names vs

let test_invariant_clean () =
  Alcotest.(check (list string)) "clean report has no violations" []
    (names (Invariant.check ~bound:1_000 (report ())))

let test_invariant_each () =
  Alcotest.(check (list string)) "deadlock" [ "no-deadlock" ]
    (names (Invariant.check ~bound:1_000 (report ~completed:false ())));
  Alcotest.(check (list string)) "checksum" [ "data-integrity" ]
    (names (Invariant.check ~bound:1_000 (report ~checksum:false ())));
  Alcotest.(check (list string)) "endpoints" [ "endpoint-consistency" ]
    (names (Invariant.check ~bound:1_000 (report ~endpoints:false ())));
  Alcotest.(check (list string)) "missing recovery" [ "span-completeness" ]
    (names (Invariant.check ~bound:1_000 (report ~applied:2 ~expected_spans:2 ~recoveries:1 ())))

let test_invariant_span_bound () =
  let spans = Span.create () in
  let s = Span.open_span spans ~component:"eth" ~defect:Status.D_exit ~repetition:1 ~now:100 in
  Span.close s ~now:5_000;
  let wide = report ~spans ~applied:1 ~expected_spans:1 ~recoveries:1 () in
  Alcotest.(check (list string)) "span wider than the bound" [ "span-completeness" ]
    (names (Invariant.check ~bound:1_000 wide));
  Alcotest.(check (list string)) "same span within a looser bound" []
    (names (Invariant.check ~bound:10_000 wide));
  let open_spans = Span.create () in
  ignore (Span.open_span open_spans ~component:"eth" ~defect:Status.D_exit ~repetition:1 ~now:100);
  Alcotest.(check (list string)) "never-closed span" [ "span-completeness" ]
    (names (Invariant.check ~bound:1_000 (report ~spans:open_spans ~recoveries:0 ())))

let test_same_failure () =
  let a = [ { Invariant.v_invariant = "no-deadlock"; v_detail = "x" } ] in
  let b = [ { Invariant.v_invariant = "no-deadlock"; v_detail = "completely different" } ] in
  let c = [ { Invariant.v_invariant = "data-integrity"; v_detail = "x" } ] in
  Alcotest.(check bool) "details are not identity" true (Invariant.same_failure a b);
  Alcotest.(check bool) "names are" false (Invariant.same_failure a c)

(* ------------------------------------------------------------------ *)
(* A toy scenario: a bare engine, no machine boot                      *)
(*                                                                     *)
(* Six same-instant events create choice points; the report fails      *)
(* data-integrity when the plan has >= 3 entries, and no-deadlock      *)
(* when the first tie-break picks candidate 2 — one plan-driven and    *)
(* one schedule-driven violation for the shrinker to minimize.         *)
(* ------------------------------------------------------------------ *)

let toy =
  let run ~seed ~policy ~plan =
    ignore seed;
    let engine = Engine.create ~policy () in
    let first = ref None in
    for i = 0 to 5 do
      ignore
        (Engine.schedule_at engine ~at:100 (fun () ->
             if !first = None then first := Some i))
    done;
    List.iter
      (fun e -> ignore (Engine.schedule_at engine ~at:e.Fault_plan.at (fun () -> ())))
      plan;
    Engine.run engine;
    let decisions = Engine.decisions engine in
    (* A toy shape: plan size + the first tie-break.  Deliberately
       coarse — like the real scenarios' recovery shapes, many runs
       collapse into one bucket, so fresh sampling saturates and only
       mutation (changing the plan length) reaches new buckets. *)
    let shape =
      Fnv.update_string
        (Fnv.update_string Fnv.start (string_of_int (List.length plan)))
        (if Array.length decisions = 0 then "-" else string_of_int decisions.(0))
    in
    {
      Scenario.r_completed = !first <> Some 2;
      r_checksum_ok = List.length plan < 3;
      r_endpoints_ok = true;
      r_applied = List.length plan;
      r_expected_spans = 0;
      r_recoveries = 0;
      r_spans = Span.create ();
      r_end_time = Engine.now engine;
      r_decisions = decisions;
      r_degraded = [];
      r_breakers = [];
      r_shape = shape;
      r_storm = None;
    }
  in
  Scenario.make ~name:"toy" ~targets:[ "toy" ] ~default_faults:4
    ~plan:(fun ~seed ~faults ->
      Fault_plan.generate ~seed ~targets:[ "toy" ] ~n:faults ~start:200 ~horizon:1_000 ())
    ~run ()

let test_explore_finds_and_is_jobs_invariant () =
  let outcome_key (o : Explore.outcome) =
    (o.Explore.o_index, o.Explore.o_seed, o.Explore.o_plan, Array.to_list o.Explore.o_decisions,
     o.Explore.o_violations)
  in
  let explore jobs = Explore.run ~jobs toy ~seed:11 ~runs:12 () in
  let r1 = explore 1 and r4 = explore 4 in
  Alcotest.(check bool) "the 4-entry default plan trips data-integrity" true
    (List.length r1.Explore.failures > 0);
  List.iter
    (fun (o : Explore.outcome) ->
      Alcotest.(check bool) "every failure names data-integrity" true
        (List.mem "data-integrity" (names o.Explore.o_violations)))
    r1.Explore.failures;
  Alcotest.(check bool) "identical findings for jobs=1 and jobs=4" true
    (List.map outcome_key r1.Explore.failures = List.map outcome_key r4.Explore.failures);
  let indices = List.map (fun o -> o.Explore.o_index) r1.Explore.failures in
  Alcotest.(check (list int)) "findings in run order" (List.sort compare indices) indices

let test_explore_crash_is_a_finding () =
  let crashing = { toy with Scenario.run = (fun ~seed ~policy ~plan ->
      ignore (seed, policy, plan);
      failwith "boom") }
  in
  let r = Explore.run ~jobs:2 crashing ~seed:3 ~runs:4 () in
  Alcotest.(check int) "every run is a finding" 4 (List.length r.Explore.failures);
  List.iter
    (fun (o : Explore.outcome) ->
      Alcotest.(check (list string)) "crash invariant" [ "scenario-crash" ]
        (names o.Explore.o_violations);
      Alcotest.(check int) "plan recovered from the seed" 4 (List.length o.Explore.o_plan))
    r.Explore.failures

(* Blind exploration reports every failing run; guided exploration
   keeps one finding per signature but still records every failing
   run. *)
let test_blind_reports_every_failure () =
  let crashing = { toy with Scenario.run = (fun ~seed ~policy ~plan ->
      ignore (seed, policy, plan);
      failwith "boom") }
  in
  let blind = Explore.run ~jobs:1 crashing ~seed:3 ~runs:4 () in
  let g = Explore.run_guided ~jobs:1 crashing ~seed:3 ~runs:4 () in
  Alcotest.(check int) "blind: one finding per failing run" 4 (List.length blind.Explore.failures);
  Alcotest.(check int) "guided: one finding per signature" 1 (List.length g.Explore.g_failing);
  Alcotest.(check (list int)) "guided records every failing run" [ 0; 1; 2; 3 ]
    (List.map (fun o -> o.Explore.o_index) g.Explore.g_failures)

(* Plans are applied after boot, and mutated or loaded plans can hold
   entries due before "now" (mutants clamp shifted entries to 0): such
   an entry must fire at once, not raise out of the scenario. *)
let test_apply_plan_early_entry () =
  let module System = Resilix_system.System in
  let t = System.boot () in
  System.start_services t [ System.spec_rtl8139 () ];
  System.run ~until:(Resilix_sim.Time.msec 100) t;
  let applied, expected_spans =
    Scenario.apply_plan t [ { Fault_plan.at = 0; target = "eth.rtl8139"; action = Fault_plan.Kill } ]
  in
  System.run ~until:(Resilix_sim.Time.msec 200) t;
  Alcotest.(check (pair int int)) "the early kill applied" (1, 1) (!applied, !expected_spans)

let test_replay_reproduces () =
  let result = Explore.run ~jobs:1 toy ~seed:11 ~runs:12 () in
  match result.Explore.failures with
  | [] -> Alcotest.fail "expected findings"
  | first :: _ -> (
      let repro = Explore.to_repro result first in
      match Replay.run ~scenario:toy repro with
      | Error m -> Alcotest.fail m
      | Ok outcome ->
          Alcotest.(check bool) "replay reproduces the violation" true
            outcome.Replay.reproduced;
          Alcotest.(check bool) "replay observes identical violations" true
            (outcome.Replay.violations = first.Explore.o_violations))

let test_replay_unknown_scenario () =
  match Replay.run { sample_repro with Repro.scenario = "no-such" } with
  | Error m -> Alcotest.(check bool) "names the scenario" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected an error"

let test_shrink_minimizes_plan () =
  let result = Explore.run ~jobs:1 toy ~seed:11 ~runs:12 () in
  match result.Explore.failures with
  | [] -> Alcotest.fail "expected findings"
  | first :: _ -> (
      let repro = Explore.to_repro result first in
      match Replay.shrink ~scenario:toy repro with
      | Error m -> Alcotest.fail m
      | Ok min -> (
          Alcotest.(check int) "plan minimized to the violation threshold" 3
            (List.length min.Repro.plan);
          Alcotest.(check bool) "never larger than the input" true
            (List.length min.Repro.plan <= List.length repro.Repro.plan
            && Array.length min.Repro.decisions <= Array.length repro.Repro.decisions);
          Alcotest.(check (list string)) "same failure preserved"
            (names repro.Repro.violations) (names min.Repro.violations);
          (* The minimized repro still replays, and shrinking is a
             fixpoint. *)
          match Replay.run ~scenario:toy min with
          | Error m -> Alcotest.fail m
          | Ok outcome ->
              Alcotest.(check bool) "minimized repro reproduces" true outcome.Replay.reproduced;
              (match Replay.shrink ~scenario:toy min with
              | Error m -> Alcotest.fail m
              | Ok again ->
                  Alcotest.(check bool) "shrink of shrunk is identity" true
                    (again.Repro.plan = min.Repro.plan
                    && again.Repro.decisions = min.Repro.decisions))))

(* A schedule-driven violation: the failure only exists because a
   tie-break picked candidate 2, so shrinking may trim the trace but
   must keep that decision. *)
let test_shrink_preserves_divergent_decision () =
  let repro =
    {
      Repro.scenario = "toy";
      seed = 0;
      bound = 1_000;
      plan = Fault_plan.generate ~seed:1 ~targets:[ "toy" ] ~n:2 ~start:200 ~horizon:1_000 ();
      decisions = [| 2; 1; 1 |];
      violations = [ { Invariant.v_invariant = "no-deadlock"; v_detail = "seed" } ];
    }
  in
  match Replay.shrink ~scenario:toy repro with
  | Error m -> Alcotest.fail m
  | Ok min ->
      Alcotest.(check int) "plan entries are irrelevant and dropped" 0
        (List.length min.Repro.plan);
      Alcotest.(check (list int)) "only the divergent tie-break survives" [ 2 ]
        (Array.to_list min.Repro.decisions)

(* ------------------------------------------------------------------ *)
(* Coverage corpus                                                     *)
(* ------------------------------------------------------------------ *)

let sig_a = { Corpus.s_invariants = [ "data-integrity" ]; s_shape = 17L }

let test_corpus_keys () =
  Alcotest.(check string) "key is a pure function" (Corpus.key sig_a) (Corpus.key sig_a);
  Alcotest.(check int) "16 hex digits" 16 (String.length (Corpus.key sig_a));
  Alcotest.(check bool) "shape distinguishes" true
    (Corpus.key sig_a <> Corpus.key { sig_a with Corpus.s_shape = 18L });
  Alcotest.(check bool) "invariant set distinguishes" true
    (Corpus.key sig_a <> Corpus.key { sig_a with Corpus.s_invariants = [] });
  (* The 0x1f field separator prevents concatenation aliasing. *)
  Alcotest.(check bool) "no aliasing across field boundaries" true
    (Corpus.key { sig_a with Corpus.s_invariants = [ "ab"; "c" ] }
    <> Corpus.key { sig_a with Corpus.s_invariants = [ "a"; "bc" ] })

let test_corpus_dedup_and_order () =
  let c = Corpus.create () in
  Alcotest.(check bool) "first add is new" true (Corpus.add c ~key:"bb" sample_repro);
  Alcotest.(check bool) "second add is new" true (Corpus.add c ~key:"aa" sample_repro);
  Alcotest.(check bool) "duplicate key rejected" false (Corpus.add c ~key:"bb" sample_repro);
  Alcotest.(check int) "size counts unique keys" 2 (Corpus.size c);
  Alcotest.(check bool) "mem" true (Corpus.mem c "aa" && not (Corpus.mem c "zz"));
  Alcotest.(check (list string)) "entries sorted by key" [ "aa"; "bb" ]
    (List.map (fun e -> e.Corpus.c_key) (Corpus.entries c));
  Alcotest.(check (list string)) "keys sorted" [ "aa"; "bb" ] (Corpus.keys c)

let test_corpus_save_load () =
  let dir = Filename.temp_file "dst-corpus" "" in
  Sys.remove dir;
  let c = Corpus.create () in
  ignore (Corpus.add c ~key:"0123456789abcdef" sample_repro);
  ignore
    (Corpus.add c ~key:"fedcba9876543210" { sample_repro with Repro.seed = 9; decisions = [||] });
  Corpus.save c ~dir;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      match Corpus.load ~dir with
      | Error m -> Alcotest.fail m
      | Ok c' ->
          Alcotest.(check int) "every entry came back" (Corpus.size c) (Corpus.size c');
          Alcotest.(check bool) "keys and repros preserved" true
            (Corpus.entries c = Corpus.entries c');
          (* Each saved entry is itself a loadable repro file. *)
          (match Repro.load (Filename.concat dir "0123456789abcdef.jsonl") with
          | Ok r -> Alcotest.(check bool) "entry file is a plain repro" true (r = sample_repro)
          | Error m -> Alcotest.fail m));
  Alcotest.(check bool) "loading a missing dir fails" true
    (match Corpus.load ~dir:"/nonexistent-dst-corpus" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

let sorted_by_at p =
  let rec go = function
    | a :: (b :: _ as rest) -> a.Fault_plan.at <= b.Fault_plan.at && go rest
    | [ _ ] | [] -> true
  in
  go p

let test_mutate_plan () =
  let targets = [| "a"; "b" |] in
  let base = Fault_plan.generate ~seed:3 ~targets:[ "a" ] ~n:6 () in
  for i = 0 to 49 do
    let m = Mutate.plan (Rng.create ~seed:i) ~targets base in
    Alcotest.(check bool) "mutant stays time-sorted" true (sorted_by_at m);
    List.iter
      (fun e ->
        Alcotest.(check bool) "times stay non-negative" true (e.Fault_plan.at >= 0);
        Alcotest.(check bool) "targets stay in the scenario" true
          (Array.exists (( = ) e.Fault_plan.target) targets))
      m
  done;
  let m1 = Mutate.plan (Rng.create ~seed:5) ~targets base in
  let m2 = Mutate.plan (Rng.create ~seed:5) ~targets base in
  Alcotest.(check bool) "same rng state, same mutant" true (m1 = m2);
  Alcotest.(check int) "empty plan grows an entry" 1
    (List.length (Mutate.plan (Rng.create ~seed:1) ~targets []));
  Alcotest.(check bool) "no targets leaves the plan alone" true
    (Mutate.plan (Rng.create ~seed:1) ~targets:[||] base = base)

let test_mutate_splice () =
  let a = Fault_plan.generate ~seed:1 ~targets:[ "a" ] ~n:4 () in
  let b = Fault_plan.generate ~seed:2 ~targets:[ "b" ] ~n:4 () in
  for i = 0 to 19 do
    let s = Mutate.splice (Rng.create ~seed:i) a b in
    Alcotest.(check bool) "splice stays sorted" true (sorted_by_at s);
    List.iter
      (fun e ->
        Alcotest.(check bool) "every entry comes from a parent" true
          (List.mem e a || List.mem e b))
      s
  done;
  Alcotest.(check bool) "empty left returns right" true
    (Mutate.splice (Rng.create ~seed:1) [] b = b);
  Alcotest.(check bool) "empty right returns left" true
    (Mutate.splice (Rng.create ~seed:1) a [] = a)

let test_mutate_decisions () =
  let base = [| 0; 1; 2; 0; 1 |] in
  for i = 0 to 49 do
    let m = Mutate.decisions (Rng.create ~seed:i) base in
    (* Flip keeps the length, insert adds one, truncate only shortens. *)
    Alcotest.(check bool) "length grows by at most one" true
      (Array.length m <= Array.length base + 1);
    Array.iter (fun d -> Alcotest.(check bool) "values stay small" true (d >= 0 && d < 4)) m
  done;
  let m1 = Mutate.decisions (Rng.create ~seed:9) base in
  let m2 = Mutate.decisions (Rng.create ~seed:9) base in
  Alcotest.(check bool) "same rng state, same mutant" true (m1 = m2);
  Alcotest.(check int) "empty trace grows one tie-break" 1
    (Array.length (Mutate.decisions (Rng.create ~seed:1) [||]))

(* ------------------------------------------------------------------ *)
(* Guided exploration (toy scenario)                                   *)
(* ------------------------------------------------------------------ *)

let test_guided_deterministic_and_jobs_invariant () =
  let explore jobs = Explore.run_guided ~jobs ~batch:6 toy ~seed:11 ~runs:24 () in
  let g1 = explore 1 and g4 = explore 4 in
  Alcotest.(check string) "summary byte-identical for jobs=1 and jobs=4"
    (Explore.guided_summary g1) (Explore.guided_summary g4);
  Alcotest.(check (list string)) "signature keys identical" g1.Explore.g_signatures
    g4.Explore.g_signatures;
  Alcotest.(check string) "repeat run is byte-identical"
    (Explore.guided_summary g1)
    (Explore.guided_summary (explore 1));
  Alcotest.(check int) "every run is either fresh or a mutant" 24
    (g1.Explore.g_fresh + g1.Explore.g_mutants);
  Alcotest.(check bool) "mutation batches actually ran" true (g1.Explore.g_mutants > 0);
  Alcotest.(check bool) "corpus kept one entry per signature" true
    (Corpus.size g1.Explore.g_corpus >= List.length g1.Explore.g_signatures)

let test_guided_covers_at_least_blind () =
  let guided = Explore.run_guided ~jobs:1 ~batch:6 toy ~seed:11 ~runs:24 () in
  let blind = Explore.run_guided ~jobs:1 ~batch:6 ~fresh_only:true toy ~seed:11 ~runs:24 () in
  Alcotest.(check bool) "guided discovers at least as many signatures" true
    (List.length guided.Explore.g_signatures >= List.length blind.Explore.g_signatures);
  Alcotest.(check int) "fresh_only never mutates" 0 blind.Explore.g_mutants

(* fresh_only guided runs execute exactly blind mode's specs, so each
   deduplicated finding must be one of Explore.run's findings,
   verbatim. *)
let test_guided_fresh_only_matches_blind () =
  let g = Explore.run_guided ~jobs:1 ~batch:6 ~fresh_only:true toy ~seed:11 ~runs:24 () in
  let blind = Explore.run ~jobs:1 toy ~seed:11 ~runs:24 () in
  Alcotest.(check bool) "both modes found failures" true
    (g.Explore.g_failing <> [] && blind.Explore.failures <> []);
  List.iter
    (fun (_, (o : Explore.outcome)) ->
      Alcotest.(check bool)
        (Printf.sprintf "finding at run %d matches blind exploration" o.Explore.o_index)
        true
        (List.exists
           (fun (b : Explore.outcome) ->
             b.Explore.o_index = o.Explore.o_index
             && b.Explore.o_seed = o.Explore.o_seed
             && b.Explore.o_plan = o.Explore.o_plan
             && b.Explore.o_decisions = o.Explore.o_decisions
             && b.Explore.o_violations = o.Explore.o_violations)
           blind.Explore.failures))
    g.Explore.g_failing

let test_guided_findings_replay () =
  let g = Explore.run_guided ~jobs:1 ~batch:6 toy ~seed:11 ~runs:24 () in
  List.iter
    (fun (_, (o : Explore.outcome)) ->
      match Replay.run ~scenario:toy (Explore.guided_to_repro g o) with
      | Error m -> Alcotest.fail m
      | Ok outcome ->
          Alcotest.(check bool)
            (Printf.sprintf "guided finding at run %d replays" o.Explore.o_index)
            true outcome.Replay.reproduced)
    g.Explore.g_failing

let test_trim_trailing_zeros () =
  Alcotest.(check (list int)) "trims" [ 1; 0; 2 ]
    (Array.to_list (Replay.trim_trailing_zeros [| 1; 0; 2; 0; 0 |]));
  Alcotest.(check (list int)) "all zeros" []
    (Array.to_list (Replay.trim_trailing_zeros [| 0; 0 |]));
  Alcotest.(check (list int)) "empty" [] (Array.to_list (Replay.trim_trailing_zeros [||]))

let tests =
  [
    Alcotest.test_case "fault plan is pure and sorted" `Quick test_plan_pure_and_sorted;
    Alcotest.test_case "fault plan inject probability" `Quick test_plan_inject_prob;
    Alcotest.test_case "fault plan rejects bad args" `Quick test_plan_invalid_args;
    Alcotest.test_case "repro line round-trip" `Quick test_repro_roundtrip;
    Alcotest.test_case "repro file round-trip" `Quick test_repro_file_roundtrip;
    Alcotest.test_case "repro rejects garbage" `Quick test_repro_rejects_garbage;
    Alcotest.test_case "repro unicode escapes" `Quick test_repro_unicode_escapes;
    QCheck_alcotest.to_alcotest prop_repro_roundtrip;
    Alcotest.test_case "repro golden lines" `Quick test_repro_golden;
    Alcotest.test_case "repro load I/O errors" `Quick test_repro_load_io_errors;
    QCheck_alcotest.to_alcotest prop_repro_fuzz;
    Alcotest.test_case "invariants: clean report" `Quick test_invariant_clean;
    Alcotest.test_case "invariants: each violation" `Quick test_invariant_each;
    Alcotest.test_case "invariants: span bound" `Quick test_invariant_span_bound;
    Alcotest.test_case "failure identity" `Quick test_same_failure;
    Alcotest.test_case "explore finds, jobs-invariant" `Quick
      test_explore_finds_and_is_jobs_invariant;
    Alcotest.test_case "explore treats crashes as findings" `Quick test_explore_crash_is_a_finding;
    Alcotest.test_case "blind reports every failing run" `Quick test_blind_reports_every_failure;
    Alcotest.test_case "apply plan: early entry fires at once" `Quick test_apply_plan_early_entry;
    Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
    Alcotest.test_case "replay rejects unknown scenario" `Quick test_replay_unknown_scenario;
    Alcotest.test_case "shrink minimizes the plan" `Quick test_shrink_minimizes_plan;
    Alcotest.test_case "shrink preserves divergent decisions" `Quick
      test_shrink_preserves_divergent_decision;
    Alcotest.test_case "trim trailing zeros" `Quick test_trim_trailing_zeros;
    Alcotest.test_case "corpus signature keys" `Quick test_corpus_keys;
    Alcotest.test_case "corpus dedups and sorts" `Quick test_corpus_dedup_and_order;
    Alcotest.test_case "corpus save/load round-trip" `Quick test_corpus_save_load;
    Alcotest.test_case "mutate: fault plans" `Quick test_mutate_plan;
    Alcotest.test_case "mutate: splice" `Quick test_mutate_splice;
    Alcotest.test_case "mutate: decision traces" `Quick test_mutate_decisions;
    Alcotest.test_case "guided: deterministic, jobs-invariant" `Quick
      test_guided_deterministic_and_jobs_invariant;
    Alcotest.test_case "guided: covers at least blind" `Quick test_guided_covers_at_least_blind;
    Alcotest.test_case "guided: fresh-only matches blind" `Quick
      test_guided_fresh_only_matches_blind;
    Alcotest.test_case "guided: findings replay" `Quick test_guided_findings_replay;
  ]
