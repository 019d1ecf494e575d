(* Paper-scale jobs-invariance checks, gated behind RESILIX_SLOW_TESTS=1.

   `dune runtest` exercises the determinism contract at smoke scale
   (see test/test_harness.ml); this binary reruns it at the paper's
   actual workload sizes — Fig. 7 at 512 MB and Fig. 8 at 1 GB, every
   kill interval — comparing a sequential run against a 4-domain run
   with the progress observer enabled.  Rows, JSONL observability
   bytes and the experiments' internal integrity checks must all
   agree.

   It also pins the paper-scale Sec. 7.2 campaign (12,500 faults,
   plain and with a wedgeable NIC) to the numbers EXPERIMENTS.md
   reports.

   Invoke via the @slow alias:

     RESILIX_SLOW_TESTS=1 dune build @slow

   Without the gate variable the binary skips (exit 0) so the alias is
   always safe to build.  RESILIX_SLOW_FIG7_MB / RESILIX_SLOW_FIG8_MB
   override the workload sizes for a quicker manual run. *)

module E = Resilix_experiments
module Campaign = Resilix_harness.Campaign

let env_mb var default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ -> Printf.eprintf "slow: ignoring %s=%S (want a positive MB count)\n%!" var s; default)

let mb = 1024 * 1024
let failures = ref 0

let check what ok =
  if ok then Printf.printf "slow: OK   %s\n%!" what
  else begin
    incr failures;
    Printf.printf "slow: FAIL %s\n%!" what
  end

(* Run one sweep, collecting the JSONL observability bytes and the
   number of progress events (the observer must be live during the
   comparison — that is the point of the test). *)
let sweep run ~jobs =
  let buf = Buffer.create (1 lsl 16) in
  let events = ref 0 in
  let rows =
    run ~jobs
      ~on_progress:(fun (_ : Campaign.progress) -> incr events)
      ~obs:(fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n')
  in
  (rows, Buffer.contents buf, !events)

let invariant name ~trials run ok =
  let t0 = Unix.gettimeofday () in
  let rows1, obs1, ev1 = sweep run ~jobs:1 in
  let rows4, obs4, ev4 = sweep run ~jobs:4 in
  check (name ^ ": rows identical for jobs=1 and jobs=4") (rows1 = rows4);
  check (name ^ ": observability bytes identical") (obs1 = obs4);
  check (name ^ ": integrity check passes") (ok rows1);
  check (Printf.sprintf "%s: progress observer saw every trial (%d)" name trials)
    (ev1 = trials && ev4 = trials);
  Printf.printf "slow: %s done in %.1fs host wall clock\n%!" name (Unix.gettimeofday () -. t0)

let () =
  if Sys.getenv_opt "RESILIX_SLOW_TESTS" <> Some "1" then begin
    print_endline "slow: skipped (set RESILIX_SLOW_TESTS=1 to run the paper-scale checks)";
    exit 0
  end;
  let fig7_mb = env_mb "RESILIX_SLOW_FIG7_MB" 512 in
  let fig8_mb = env_mb "RESILIX_SLOW_FIG8_MB" 1024 in
  let intervals = [ 1; 2; 4; 8; 15 ] in
  let trials = 1 + List.length intervals (* baseline + one per interval *) in
  Printf.printf "slow: fig7 at %d MB, fig8 at %d MB, intervals 1,2,4,8,15\n%!" fig7_mb fig8_mb;
  invariant "fig7 (paper scale)" ~trials
    (fun ~jobs ~on_progress ~obs ->
      E.Fig7.run ~jobs ~on_progress ~size:(fig7_mb * mb) ~intervals ~seed:42 ~obs ())
    E.Fig7.ok;
  invariant "fig8 (paper scale)" ~trials
    (fun ~jobs ~on_progress ~obs ->
      E.Fig8.run ~jobs ~on_progress ~size:(fig8_mb * mb) ~intervals ~seed:42 ~obs ())
    E.Fig8.ok;
  (* DST at exploration scale: a large seeded batch over both built-in
     scenarios.  The runtest batch (test/dst) proves the pipeline on a
     handful of runs; this proves the determinism contract holds over
     hundreds of schedule permutations, jobs=1 vs jobs=4. *)
  let module Explore = Resilix_dst.Explore in
  let module Scenario = Resilix_dst.Scenario in
  List.iter
    (fun (name, runs, bound) ->
      match Scenario.find name with
      | None -> check (Printf.sprintf "dst: scenario %s exists" name) false
      | Some sc ->
          let t0 = Unix.gettimeofday () in
          let explore jobs = Explore.run ~jobs sc ~seed:42 ~runs ~bound () in
          let r1 = explore 1 and r4 = explore 4 in
          let key (o : Explore.outcome) =
            (o.Explore.o_index, o.Explore.o_seed, o.Explore.o_plan,
             Array.to_list o.Explore.o_decisions, o.Explore.o_violations)
          in
          check
            (Printf.sprintf "dst %s: %d-run exploration identical for jobs=1 and jobs=4" name
               runs)
            (List.map key r1.Explore.failures = List.map key r4.Explore.failures);
          check
            (Printf.sprintf "dst %s: generous bound stays clean" name)
            (r1.Explore.failures = []);
          Printf.printf "slow: dst %s done in %.1fs host wall clock\n%!" name
            (Unix.gettimeofday () -. t0))
    [
      ("wget", 200, Explore.default_bound);
      ("dp-inject", 100, Explore.default_bound);
      ("storm", 50, Explore.default_bound);
    ];
  (* The C10K storm at full scale: 1000 concurrent connections against
     a 64-worker httpd pool with a mid-storm driver kill.  The rendered
     report must be byte-identical across repeats, every request must
     resolve, and the DST invariants must hold. *)
  (let module Engine = Resilix_sim.Engine in
   let module Invariant = Resilix_dst.Invariant in
   let requests = 1000 in
   let sc =
     Scenario.storm_sized ~requests ~concurrency:1000 ~workers:64 ~backlog:256 ()
   in
   let plan = sc.Scenario.plan ~seed:42 ~faults:sc.Scenario.default_faults in
   let t0 = Unix.gettimeofday () in
   let run () = sc.Scenario.run ~seed:42 ~policy:Engine.Fifo ~plan in
   let r1 = run () and r2 = run () in
   check "storm 1000: byte-identical report across repeats"
     (Scenario.storm_lines r1 = Scenario.storm_lines r2);
   check "storm 1000: invariants clean"
     (Invariant.check ~bound:Explore.default_bound r1 = []);
   (match r1.Scenario.r_storm with
   | Some s ->
       check "storm 1000: every request resolved"
         (s.Scenario.s_completed + s.Scenario.s_mismatches + s.Scenario.s_timeouts
          + s.Scenario.s_failed
         = requests);
       check "storm 1000: no corrupted responses" (s.Scenario.s_mismatches = 0)
   | None -> check "storm 1000: stats present" false);
   Printf.printf "slow: storm 1000 done in %.1fs host wall clock\n%!"
     (Unix.gettimeofday () -. t0));
  (* The paper-scale Sec. 7.2 campaign, emulator and wedgeable-NIC
     variants: the report must match the tables in EXPERIMENTS.md. *)
  List.iter
    (fun (name, wedge_prob, expect, by_type) ->
      let t0 = Unix.gettimeofday () in
      let o = E.Sec72.run ~jobs:2 ~faults:12_500 ~seed:42 ~wedge_prob () in
      let got =
        E.Sec72.
          [
            o.injected;
            o.crashes;
            o.panics;
            o.exceptions;
            o.heartbeats;
            o.other;
            o.recovered;
            o.user_resets;
            o.bios_resets;
          ]
      in
      check
        (Printf.sprintf "sec72 %s: 12,500-fault report matches EXPERIMENTS.md (got %s)" name
           (String.concat "/" (List.map string_of_int got)))
        (got = expect);
      check
        (Printf.sprintf "sec72 %s: faults applied by type match EXPERIMENTS.md" name)
        (List.map snd o.E.Sec72.by_fault_type = by_type);
      Printf.printf "slow: sec72 %s done in %.1fs host wall clock\n%!" name
        (Unix.gettimeofday () -. t0))
    [
      (* injected/crashes/panics/exceptions/heartbeats/other/recovered/
         user resets/BIOS resets; fault types in name order *)
      ( "emulator",
        0.,
        [ 12_500; 360; 237; 121; 2; 0; 360; 137; 0 ],
        [ 1863; 1844; 1848; 1820; 1816; 1736; 1573 ] );
      ( "--hw",
        1.0,
        [ 12_500; 357; 234; 121; 2; 0; 357; 137; 10 ],
        [ 1863; 1843; 1847; 1819; 1816; 1738; 1574 ] );
    ];
  if !failures > 0 then begin
    Printf.eprintf "slow: %d check(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "slow: all paper-scale invariance checks passed"
