module System = Resilix_system.System
module Rig = Resilix_dst.Rig
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign
module Mfs = Resilix_fs.Mfs
module Dd = Resilix_apps.Dd

type row = {
  kill_interval_s : int option;
  bytes : int;
  duration_us : int;
  throughput_mbs : float;
  recoveries : int;
  reissued_ios : int;
  mean_restart_us : int;
  overhead_pct : float;
  integrity_ok : bool;
}

type trial_result = { row : row; digest : string; obs_lines : string list }

let one_run ~size ~seed ~kill_interval ~label () =
  let t, result = Rig.dd ~seed ~size in
  (match kill_interval with
  | Some interval -> System.start_crash_script t ~target:"blk.sata" ~interval ()
  | None -> ());
  let finished = System.run_until t ~timeout:3_600_000_000 (fun () -> result.Dd.finished) in
  let recoveries, mean_restart = Fig7.recovery_stats t in
  let duration = result.Dd.finished_at - result.Dd.started_at in
  {
    row =
      {
        kill_interval_s = Option.map (fun i -> i / 1_000_000) kill_interval;
        bytes = result.Dd.bytes;
        duration_us = duration;
        throughput_mbs =
          (if duration > 0 then float_of_int result.Dd.bytes /. float_of_int duration else 0.);
        recoveries;
        reissued_ios = Mfs.reissued_ios t.System.mfs;
        mean_restart_us = mean_restart;
        overhead_pct = 0.;
        integrity_ok = finished && result.Dd.ok;
      };
    digest = result.Dd.digest;
    obs_lines = System.obs_lines ~label t;
  }

(* Unlike Fig. 7 there is no external reference digest: every run
   must read the same on-disk file, whose content derives from the
   machine seed (mkfs fills it from the blockstore's stream).  So all
   trials share one seed — what varies per trial is only the kill
   schedule — and [reduce] checks every digest against the
   baseline's. *)
let trials ?(size = 128 * 1024 * 1024) ?(intervals = [ 1; 2; 4; 8; 15 ]) ?(seed = 42) () =
  let trial kill_interval =
    let label =
      match kill_interval with
      | None -> "fig8/baseline"
      | Some i -> Printf.sprintf "fig8/kill-%ds" (i / 1_000_000)
    in
    Trial.make ~name:label ~seed (one_run ~size ~seed ~kill_interval ~label)
  in
  trial None :: List.map (fun s -> trial (Some (s * 1_000_000))) intervals

let reduce results =
  match results with
  | [] -> []
  | baseline :: rest ->
      baseline.row
      :: List.map
           (fun r ->
             {
               r.row with
               overhead_pct =
                 100.
                 *. (1. -. (r.row.throughput_mbs /. max 0.001 baseline.row.throughput_mbs));
               integrity_ok = r.row.integrity_ok && String.equal r.digest baseline.digest;
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
  Table.section "Fig. 8 — dd disk throughput vs. SATA-driver kill interval";
  Table.note
    "Paper anchors (1 GB, SATA): uninterrupted 32.7 MB/s; with kills: 30.5 MB/s\n\
     at 15 s down to 12.3 MB/s at 1 s (overhead 7%%..62%%); identical SHA-1 every run.\n\n";
  Table.print
    ~header:
      [
        "kill interval"; "MB"; "time (s)"; "MB/s"; "recoveries"; "redone I/O";
        "mean restart (ms)"; "overhead"; "integrity";
      ]
    (List.map
       (fun r ->
         [
           (match r.kill_interval_s with None -> "none" | Some s -> Printf.sprintf "%d s" s);
           Printf.sprintf "%d" (r.bytes / 1024 / 1024);
           Printf.sprintf "%.2f" (float_of_int r.duration_us /. 1e6);
           Printf.sprintf "%.2f" r.throughput_mbs;
           string_of_int r.recoveries;
           string_of_int r.reissued_ios;
           Printf.sprintf "%.1f" (float_of_int r.mean_restart_us /. 1e3);
           (match r.kill_interval_s with
           | None -> "-"
           | Some _ -> Printf.sprintf "%.1f%%" r.overhead_pct);
           (if r.integrity_ok then "digest ok" else "CORRUPT");
         ])
       rows)
