module System = Resilix_system.System
module Rig = Resilix_dst.Rig
module Span = Resilix_obs.Span
module Rng = Resilix_sim.Rng
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign
module Wget = Resilix_apps.Wget

type row = {
  kill_interval_s : int option;
  bytes : int;
  duration_us : int;
  throughput_mbs : float;
  recoveries : int;
  mean_restart_us : int;
  overhead_pct : float;
  integrity_ok : bool;
}

type trial_result = { row : row; obs_lines : string list }

(* Recovery latency comes from the typed spans RS records (opened at
   defect detection, closed at reintegration). *)
let recovery_stats t =
  let closed =
    List.filter_map (fun s -> Span.total_us s) (Span.spans t.System.spans)
  in
  let n = List.length closed in
  (n, if n = 0 then 0 else List.fold_left ( + ) 0 closed / n)

(* One hermetic trial body: boots its own machine, runs one transfer,
   and returns the row plus its observability lines (emitted by the
   reducer in trial order, so parallel runs stay byte-identical). *)
let one_transfer ~size ~seed ~kill_interval ~label () =
  let t, result = Rig.wget ~seed ~size () in
  (match kill_interval with
  | Some interval -> System.start_crash_script t ~target:"eth.rtl8139" ~interval ()
  | None -> ());
  let finished = System.run_until t ~timeout:3_600_000_000 (fun () -> result.Wget.finished) in
  let recoveries, mean_restart = recovery_stats t in
  let duration = result.Wget.finished_at - result.Wget.started_at in
  {
    row =
      {
        kill_interval_s = Option.map (fun i -> i / 1_000_000) kill_interval;
        bytes = result.Wget.bytes;
        duration_us = duration;
        throughput_mbs =
          (if duration > 0 then float_of_int result.Wget.bytes /. float_of_int duration else 0.);
        recoveries;
        mean_restart_us = mean_restart;
        overhead_pct = 0.;
        integrity_ok = finished && Rig.wget_intact ~size result;
      };
    obs_lines = System.obs_lines ~label t;
  }

let trials ?(size = 64 * 1024 * 1024) ?(intervals = [ 1; 2; 4; 8; 15 ]) ?(seed = 42) () =
  let trial index kill_interval =
    let label =
      match kill_interval with
      | None -> "fig7/baseline"
      | Some i -> Printf.sprintf "fig7/kill-%ds" (i / 1_000_000)
    in
    let trial_seed = Rng.derive ~seed ~index in
    Trial.make ~name:label ~seed:trial_seed
      (one_transfer ~size ~seed:trial_seed ~kill_interval ~label)
  in
  trial 0 None
  :: List.mapi (fun i s -> trial (i + 1) (Some (s * 1_000_000))) intervals

(* Pure reducer: first trial is the uninterrupted baseline the
   overhead column is computed against. *)
let reduce results =
  match List.map (fun r -> r.row) results with
  | [] -> []
  | baseline :: rest ->
      baseline
      :: List.map
           (fun r ->
             {
               r with
               overhead_pct =
                 100. *. (1. -. (r.throughput_mbs /. max 0.001 baseline.throughput_mbs));
             })
           rest

let run ?jobs ?on_progress ?size ?intervals ?(seed = 42) ?obs () =
  let results = Campaign.(values (run ?jobs ?on_progress (trials ?size ?intervals ~seed ()))) in
  (match obs with
  | None -> ()
  | Some sink -> List.iter (fun r -> List.iter sink r.obs_lines) results);
  reduce results

let ok rows = rows <> [] && List.for_all (fun r -> r.integrity_ok) rows

let print rows =
  Table.section "Fig. 7 — wget throughput vs. Ethernet-driver kill interval";
  Table.note
    "Paper anchors (512 MB, RealTek 8139): uninterrupted 10.8 MB/s; with kills:\n\
     10.7 MB/s at 15 s down to 8.1 MB/s at 1 s (overhead 1%%..25%%); mean recovery 0.48 s.\n\n";
  Table.print
    ~header:
      [ "kill interval"; "MB"; "time (s)"; "MB/s"; "recoveries"; "mean restart (ms)"; "overhead"; "integrity" ]
    (List.map
       (fun r ->
         [
           (match r.kill_interval_s with None -> "none" | Some s -> Printf.sprintf "%d s" s);
           Printf.sprintf "%d" (r.bytes / 1024 / 1024);
           Printf.sprintf "%.2f" (float_of_int r.duration_us /. 1e6);
           Printf.sprintf "%.2f" r.throughput_mbs;
           string_of_int r.recoveries;
           Printf.sprintf "%.1f" (float_of_int r.mean_restart_us /. 1e3);
           (match r.kill_interval_s with
           | None -> "-"
           | Some _ -> Printf.sprintf "%.1f%%" r.overhead_pct);
           (if r.integrity_ok then "digest ok" else "CORRUPT");
         ])
       rows)
