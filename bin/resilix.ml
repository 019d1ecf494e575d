(* The resilix command-line harness: regenerate every table and figure
   of the paper's evaluation, plus the ablations.

   Every subcommand takes --jobs: sweeps are hermetic trial campaigns
   (lib/harness) executed on a pool of OCaml domains, and the printed
   tables are byte-identical for any job count.  --progress drives a
   live stderr progress line (completed/total, last trial, ETA) that
   never touches stdout.  The exit status is non-zero when an
   experiment's internal integrity check fails (fig7/fig8 digest
   mismatch, sec7_2 crash-class split mismatch) or when any campaign
   trial failed — every failed trial is summarized by name first. *)

module E = Resilix_experiments
module Campaign = Resilix_harness.Campaign
module Progress = Resilix_harness.Progress
module Dst = Resilix_dst

let mb = 1024 * 1024

(* [--metrics-out FILE]: run [f] with a JSONL sink writing to FILE
   (metrics snapshots, recovery spans and MTTR reports per run). *)
let with_obs metrics_out f =
  match metrics_out with
  | None -> f None
  | Some file ->
      let oc = open_out file in
      let sink line = output_string oc line; output_char oc '\n' in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f (Some sink))

(* Exit-code plumbing: a failed integrity check is a real failure,
   not just a red cell in a table. *)
let checked name ok = if ok then 0 else (Printf.eprintf "INTEGRITY FAILURE: %s\n" name; 1)

(* A campaign with failed trials prints every failure (with its trial
   name) to stderr and exits non-zero, instead of dying on the first
   exception a worker happened to hit. *)
let guard f =
  try f ()
  with Campaign.Partial failures ->
    prerr_endline (Campaign.failures_summary failures);
    1

let progress_for when_ label = Progress.make ~when_ ~label ()

let run_fig3 jobs progress seed =
  guard (fun () ->
      E.Fig3.print (E.Fig3.run ?jobs ?on_progress:(progress_for progress "fig3") ~seed ());
      0)

let fig7 jobs progress seed size_mb intervals obs =
  let rows =
    E.Fig7.run ?jobs
      ?on_progress:(progress_for progress "fig7")
      ~size:(size_mb * mb) ~intervals ~seed ?obs ()
  in
  E.Fig7.print rows;
  checked "fig7 digest" (E.Fig7.ok rows)

let fig8 jobs progress seed size_mb intervals obs =
  let rows =
    E.Fig8.run ?jobs
      ?on_progress:(progress_for progress "fig8")
      ~size:(size_mb * mb) ~intervals ~seed ?obs ()
  in
  E.Fig8.print rows;
  checked "fig8 digest vs baseline" (E.Fig8.ok rows)

let run_fig7 jobs progress seed size_mb intervals metrics_out =
  guard (fun () -> with_obs metrics_out (fig7 jobs progress seed size_mb intervals))

let run_fig8 jobs progress seed size_mb intervals metrics_out =
  guard (fun () -> with_obs metrics_out (fig8 jobs progress seed size_mb intervals))

let run_sec72 jobs progress seed faults shard_size hw metrics_out =
  guard (fun () ->
      with_obs metrics_out (fun obs ->
          let label, wedge_prob =
            if hw then ("real-hardware variant: wedgeable NIC", 1.0) else ("emulator variant", 0.)
          in
          let o =
            E.Sec72.run ?jobs
              ?on_progress:(progress_for progress "sec72")
              ~faults ~seed ~wedge_prob ?shard_size ?obs ()
          in
          E.Sec72.print label o;
          checked "sec7_2 crash-class split" (E.Sec72.ok o)))

let run_fig9 jobs progress () =
  guard (fun () ->
      E.Fig9.print (E.Fig9.run ?jobs ?on_progress:(progress_for progress "fig9") ());
      0)

let run_ablations jobs progress seed =
  guard (fun () ->
      E.Ablations.print_heartbeat
        (E.Ablations.heartbeat_sweep ?jobs
           ?on_progress:(progress_for progress "ablation/heartbeat")
           ~seed ());
      E.Ablations.print_policy
        (E.Ablations.policy_comparison ?jobs
           ?on_progress:(progress_for progress "ablation/policy")
           ~seed ());
      E.Ablations.print_availability
        (E.Ablations.availability_study ?jobs
           ?on_progress:(progress_for progress "ablation/availability")
           ~seed ());
      E.Ablations.print_ipc
        (E.Ablations.ipc_microbench ?jobs ?on_progress:(progress_for progress "ablation/ipc") ());
      0)

let print_outcome_failures (result : Dst.Explore.result) =
  List.iter
    (fun (o : Dst.Explore.outcome) ->
      Printf.printf "run %04d (seed %d) FAILED:\n" o.Dst.Explore.o_index o.Dst.Explore.o_seed;
      List.iter
        (fun v -> Printf.printf "  %s\n" (Dst.Invariant.pp_violation v))
        o.Dst.Explore.o_violations;
      Printf.printf "  plan: %s\n" (Dst.Fault_plan.pp_compact o.Dst.Explore.o_plan);
      Printf.printf "  decisions: %d recorded\n" (Array.length o.Dst.Explore.o_decisions))
    result.Dst.Explore.failures

(* With --repro-out, the first finding is written out, minimized
   unless --no-shrink. *)
let write_first_finding repro_out no_shrink repro =
  let repro =
    if no_shrink then repro
    else
      match Dst.Replay.shrink repro with
      | Ok minimized ->
          Printf.printf "shrunk: %d -> %d fault(s), %d -> %d decision(s)\n"
            (List.length repro.Dst.Repro.plan)
            (List.length minimized.Dst.Repro.plan)
            (Array.length repro.Dst.Repro.decisions)
            (Array.length minimized.Dst.Repro.decisions);
          minimized
      | Error m ->
          Printf.eprintf "shrink failed (%s); keeping the original repro\n" m;
          repro
  in
  match repro_out with
  | Some file ->
      Dst.Repro.save repro file;
      Printf.printf "repro written to %s\n" file
  | None -> ()

let run_explore_blind jobs progress sc ~seed ~runs faults bound repro_out no_shrink =
  let result =
    Dst.Explore.run ?jobs
      ?on_progress:(progress_for progress ("explore/" ^ sc.Dst.Scenario.name))
      ?faults ~bound sc ~seed ~runs ()
  in
  Printf.printf "explored %s: %d run(s), %d failing\n" result.Dst.Explore.scenario
    result.Dst.Explore.runs
    (List.length result.Dst.Explore.failures);
  print_outcome_failures result;
  match result.Dst.Explore.failures with
  | [] -> 0
  | first :: _ ->
      write_first_finding repro_out no_shrink (Dst.Explore.to_repro result first);
      1

let run_explore_guided jobs progress sc ~seed ~runs faults bound repro_out no_shrink
    corpus_dir batch =
  let corpus =
    match corpus_dir with
    | Some dir when Sys.file_exists dir -> (
        match Dst.Corpus.load ~dir with
        | Ok c ->
            Printf.printf "corpus: loaded %d entries from %s\n" (Dst.Corpus.size c) dir;
            Ok (Some c)
        | Error m ->
            Printf.eprintf "cannot load corpus %s: %s\n" dir m;
            Error 2)
    | _ -> Ok None
  in
  match corpus with
  | Error rc -> rc
  | Ok corpus -> (
      let g =
        Dst.Explore.run_guided ?jobs
          ?on_progress:(progress_for progress ("explore/" ^ sc.Dst.Scenario.name))
          ?faults ~bound ~batch ?corpus sc ~seed ~runs ()
      in
      print_string (Dst.Explore.guided_summary g);
      (match corpus_dir with
      | Some dir ->
          Dst.Corpus.save g.Dst.Explore.g_corpus ~dir;
          Printf.printf "corpus: %d entries saved to %s (%d new)\n"
            (Dst.Corpus.size g.Dst.Explore.g_corpus)
            dir g.Dst.Explore.g_new_entries
      | None -> ());
      match g.Dst.Explore.g_failing with
      | [] -> 0
      | (_, first) :: _ ->
          write_first_finding repro_out no_shrink (Dst.Explore.guided_to_repro g first);
          1)

let scenario_names = List.map (fun s -> s.Dst.Scenario.name) Dst.Scenario.builtins

(* [Scenario.find], complaining on stderr about an unknown name. *)
let find_scenario name =
  let sc = Dst.Scenario.find name in
  if Option.is_none sc then
    Printf.eprintf "unknown scenario %S (known: %s)\n" name (String.concat ", " scenario_names);
  sc

(* Exploration exits like a fuzzer: 0 when every run upheld the
   invariants, 1 when a finding was made (and, with --repro-out, a
   minimized repro file written). *)
let run_explore jobs progress scenario_name seed runs faults bound repro_out no_shrink
    guided corpus_dir batch =
  match find_scenario scenario_name with
  | None -> 2
  | Some sc ->
      if guided then
        run_explore_guided jobs progress sc ~seed ~runs faults bound repro_out no_shrink
          corpus_dir batch
      else run_explore_blind jobs progress sc ~seed ~runs faults bound repro_out no_shrink

(* [resilix health SCENARIO]: one run of the scenario under the default
   tie-break policy, judged by the degradation contract.  Exit status
   is nagios-style: 0 when everything is healthy, 1 when components
   are degraded, 2 when a circuit breaker is not closed. *)
let run_health scenario_name seed faults =
  match find_scenario scenario_name with
  | None -> 3
  | Some sc ->
      let faults = Option.value faults ~default:sc.Dst.Scenario.default_faults in
      let plan = sc.Dst.Scenario.plan ~seed ~faults in
      let report = sc.Dst.Scenario.run ~seed ~policy:Resilix_sim.Engine.Fifo ~plan in
      List.iter
        (fun (b : Dst.Scenario.breaker_row) ->
          Printf.printf "breaker %-16s %-9s trips=%d probes=%d failures=%d\n"
            b.Dst.Scenario.b_component b.Dst.Scenario.b_state b.Dst.Scenario.b_trips
            b.Dst.Scenario.b_probes b.Dst.Scenario.b_failures)
        report.Dst.Scenario.r_breakers;
      List.iter (Printf.printf "degraded %s\n") report.Dst.Scenario.r_degraded;
      let breaker_open =
        List.exists
          (fun (b : Dst.Scenario.breaker_row) -> b.Dst.Scenario.b_state <> "closed")
          report.Dst.Scenario.r_breakers
      in
      if breaker_open then begin
        Printf.printf "health: BREAKER OPEN\n";
        2
      end
      else if report.Dst.Scenario.r_degraded <> [] then begin
        Printf.printf "health: DEGRADED\n";
        1
      end
      else begin
        Printf.printf "health: OK\n";
        0
      end

(* The C10K storm: many concurrent HTTP-ish connections against the
   httpd worker pool while the plan SIGKILLs the Ethernet driver
   mid-storm.  The report (tail latencies, error counts, goodput
   timeline) is virtual-time only: byte-identical for any repeat of
   the same seed.  Exit 1 when a DST invariant is violated. *)
let run_storm requests concurrency workers backlog seed faults bound =
  let sc =
    if requests = 64 && concurrency = 32 && workers = 8 && backlog = 16 then Dst.Scenario.storm
    else Dst.Scenario.storm_sized ~requests ~concurrency ~workers ~backlog ()
  in
  let faults = Option.value faults ~default:sc.Dst.Scenario.default_faults in
  let plan = sc.Dst.Scenario.plan ~seed ~faults in
  let report = sc.Dst.Scenario.run ~seed ~policy:Resilix_sim.Engine.Fifo ~plan in
  Printf.printf "storm %s: %d connection(s), %d worker(s), backlog %d, seed %d\n"
    sc.Dst.Scenario.name concurrency workers backlog seed;
  List.iter print_endline (Dst.Scenario.storm_lines report);
  match Dst.Invariant.check ~bound report with
  | [] ->
      Printf.printf "invariants: OK\n";
      0
  | vs ->
      List.iter (fun v -> Printf.printf "VIOLATION %s\n" (Dst.Invariant.pp_violation v)) vs;
      1

let run_replay file do_shrink out =
  match Dst.Repro.load file with
  | Error m ->
      Printf.eprintf "cannot load %s: %s\n" file m;
      2
  | Ok repro -> (
      match Dst.Replay.run repro with
      | Error m ->
          Printf.eprintf "cannot replay %s: %s\n" file m;
          2
      | Ok outcome ->
          List.iter
            (fun v -> Printf.printf "%s\n" (Dst.Invariant.pp_violation v))
            outcome.Dst.Replay.violations;
          Printf.printf "reproduced: %b\n" outcome.Dst.Replay.reproduced;
          let rc = ref (if outcome.Dst.Replay.reproduced then 0 else 1) in
          if do_shrink && outcome.Dst.Replay.reproduced then begin
            match Dst.Replay.shrink repro with
            | Ok minimized ->
                let dest = Option.value out ~default:(file ^ ".min") in
                Dst.Repro.save minimized dest;
                Printf.printf "shrunk repro written to %s (%d fault(s), %d decision(s))\n" dest
                  (List.length minimized.Dst.Repro.plan)
                  (Array.length minimized.Dst.Repro.decisions)
            | Error m ->
                Printf.eprintf "shrink failed: %s\n" m;
                rc := max !rc 1
          end;
          !rc)

open Cmdliner

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master RNG seed (runs are deterministic).")

let jobs_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the trial campaign (default: all cores). Output is identical \
           for any value.")

let progress_t =
  Arg.(
    value
    & opt (enum [ ("auto", `Auto); ("always", `Always); ("never", `Never) ]) `Auto
    & info [ "progress" ] ~docv:"WHEN"
        ~doc:
          "Live campaign progress on stderr (completed/total trials, last trial's wall \
           clock, ETA): $(b,auto) shows it only when stderr is a tty, $(b,always) forces \
           it, $(b,never) disables it. Strictly off the stdout path: tables and \
           --metrics-out JSONL are unaffected.")

let size_t default =
  Arg.(value & opt int default & info [ "size-mb" ] ~doc:"Transfer size in MB.")

let intervals_t =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4; 8; 15 ]
    & info [ "intervals" ] ~doc:"Kill intervals in seconds (comma separated).")

let faults_t =
  Arg.(value & opt int 12_500 & info [ "faults" ] ~doc:"Number of faults to inject.")

let shard_size_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard-size" ]
        ~doc:"Faults per campaign shard (default 500; layout is independent of --jobs).")

let hw_t =
  Arg.(value & flag & info [ "hw" ] ~doc:"Real-hardware variant: the NIC can wedge.")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write JSONL observability output (metric snapshots, recovery spans, MTTR reports).")

let scenario_t =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO"
        ~doc:
          ("Scenario to explore: "
          ^ String.concat ", " (List.map (Printf.sprintf "$(b,%s)") scenario_names)
          ^ "."))

let runs_t =
  Arg.(value & opt int 16 & info [ "runs" ] ~doc:"Number of seeded runs to explore.")

let health_scenario_t =
  Arg.(
    value
    & pos 0 string "flaky"
    & info [] ~docv:"SCENARIO"
        ~doc:"Scenario to run the health probe against (default: $(b,flaky)).")

let explore_faults_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "faults" ] ~doc:"Fault-plan length per run (default: the scenario's).")

let bound_t =
  Arg.(
    value
    & opt int Dst.Explore.default_bound
    & info [ "bound" ] ~docv:"US"
        ~doc:"Recovery-span completeness bound in microseconds of virtual time.")

let repro_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "repro-out" ] ~docv:"FILE"
        ~doc:"Write the first finding as a JSONL repro file (shrunk unless --no-shrink).")

let no_shrink_t =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip minimization of the finding.")

let guided_t =
  Arg.(
    value
    & flag
    & info [ "guided" ]
        ~doc:
          "Coverage-guided exploration: alternate fresh sampling with mutations of a \
           coverage corpus (new violated-invariant sets and recovery shapes).  Findings \
           are deduplicated by coverage signature.  Output is deterministic for any \
           $(b,--jobs).")

let corpus_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "With --guided: load an existing corpus from $(docv) before exploring and save \
           the grown corpus back after (one replayable JSONL repro file per coverage \
           signature).")

let batch_t =
  Arg.(
    value
    & opt int Dst.Explore.default_batch
    & info [ "batch" ] ~docv:"N"
        ~doc:"With --guided: runs per fresh/mutation batch.")

let storm_requests_t =
  Arg.(
    value
    & opt int 500
    & info [ "requests" ] ~docv:"N" ~doc:"Requests the load generator issues.")

let storm_concurrency_t =
  Arg.(
    value
    & opt int 500
    & info [ "concurrency" ] ~docv:"N" ~doc:"Maximum simultaneous client connections.")

let storm_workers_t =
  Arg.(
    value
    & opt int 32
    & info [ "workers" ] ~docv:"N" ~doc:"httpd worker processes accepting on the shared socket.")

let storm_backlog_t =
  Arg.(
    value
    & opt int 128
    & info [ "backlog" ] ~docv:"N"
        ~doc:"Listener accept backlog; overflowing SYNs are refused with RST.")

let repro_file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JSONL repro file.")

let shrink_t =
  Arg.(value & flag & info [ "shrink" ] ~doc:"Also minimize the repro after replaying it.")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Where --shrink writes the minimized repro (default: FILE.min).")

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let fig3_cmd =
  cmd "fig3" "Recovery-scheme matrix (Fig. 3)"
    Term.(const run_fig3 $ jobs_t $ progress_t $ seed_t)

let fig7_cmd =
  cmd "fig7" "wget throughput vs Ethernet-driver kill interval (Fig. 7)"
    Term.(const run_fig7 $ jobs_t $ progress_t $ seed_t $ size_t 128 $ intervals_t $ metrics_out_t)

let fig8_cmd =
  cmd "fig8" "dd throughput vs disk-driver kill interval (Fig. 8)"
    Term.(const run_fig8 $ jobs_t $ progress_t $ seed_t $ size_t 1024 $ intervals_t $ metrics_out_t)

let sec72_cmd =
  cmd "sec72" "Fault-injection campaign on the DP8390 driver (Sec. 7.2)"
    Term.(
      const run_sec72 $ jobs_t $ progress_t $ seed_t $ faults_t $ shard_size_t $ hw_t
      $ metrics_out_t)

let fig9_cmd =
  cmd "fig9" "Source-code statistics (Fig. 9)"
    Term.(const run_fig9 $ jobs_t $ progress_t $ const ())

let ablations_cmd =
  cmd "ablations" "Design-choice ablations" Term.(const run_ablations $ jobs_t $ progress_t $ seed_t)

let health_cmd =
  cmd "health"
    "Run a scenario once and report the degradation contract (exit 0 healthy, 1 degraded, 2      breaker open)"
    Term.(const run_health $ health_scenario_t $ seed_t $ explore_faults_t)

let explore_cmd =
  cmd "explore" "Seeded schedule/fault exploration of a scenario (DST)"
    Term.(
      const run_explore $ jobs_t $ progress_t $ scenario_t $ seed_t $ runs_t $ explore_faults_t
      $ bound_t $ repro_out_t $ no_shrink_t $ guided_t $ corpus_t $ batch_t)

let storm_cmd =
  cmd "storm"
    "C10K storm: concurrent HTTP-ish load vs a mid-storm Ethernet-driver kill, with tail-latency \
     and goodput report (exit 1 on invariant violation)"
    Term.(
      const run_storm $ storm_requests_t $ storm_concurrency_t $ storm_workers_t
      $ storm_backlog_t $ seed_t $ explore_faults_t $ bound_t)

let replay_cmd =
  cmd "replay" "Re-execute a JSONL repro file and check it reproduces"
    Term.(const run_replay $ repro_file_t $ shrink_t $ out_t)

let all_cmd =
  cmd "all" "Run every experiment with default parameters"
    Term.(
      const (fun jobs progress seed size7 size8 intervals faults metrics_out ->
          let rc = ref (run_fig3 jobs progress seed) in
          let track n = rc := max !rc n in
          (* One --metrics-out file for both figures, fig7 first. *)
          track
            (guard (fun () ->
                 with_obs metrics_out (fun obs ->
                     let c7 = fig7 jobs progress seed size7 intervals obs in
                     let c8 = fig8 jobs progress seed size8 intervals obs in
                     max c7 c8)));
          track (run_sec72 jobs progress seed faults None false None);
          track (run_sec72 jobs progress seed faults None true None);
          track (run_fig9 jobs progress ());
          track (run_ablations jobs progress seed);
          !rc)
      $ jobs_t $ progress_t $ seed_t $ size_t 128 $ size_t 512 $ intervals_t $ faults_t
      $ metrics_out_t)

let () =
  let info =
    Cmd.info "resilix" ~version:"1.0.0"
      ~doc:"Failure resilience for device drivers — experiment harness"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            fig3_cmd;
            fig7_cmd;
            fig8_cmd;
            sec72_cmd;
            fig9_cmd;
            ablations_cmd;
            health_cmd;
            storm_cmd;
            explore_cmd;
            replay_cmd;
            all_cmd;
          ]))
