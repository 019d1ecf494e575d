(* Character-device recovery semantics (Sec. 6.3, Fig. 6): errors are
   pushed to the application layer; recovery-aware applications
   continue, and the CD burner case must fail loudly. *)

module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module Audio_dev = Resilix_hw.Audio_dev
module Printer_dev = Resilix_hw.Printer_dev
module Cd_dev = Resilix_hw.Cd_dev
module Reincarnation = Resilix_core.Reincarnation
module Mp3 = Resilix_apps.Mp3_player
module Lpd = Resilix_apps.Lpd
module Cdburn = Resilix_apps.Cdburn

let boot () = System.boot ~opts:{ System.default_opts with System.disk_mb = 8 } ()

let test_mp3_clean () =
  let t = boot () in
  System.start_services t [ System.spec_audio () ];
  let result = Mp3.fresh_result () in
  ignore (System.spawn_app t ~name:"mp3" (Mp3.make ~song_bytes:100_000 result));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> result.Mp3.finished) in
  Alcotest.(check bool) "player finished" true finished;
  Alcotest.(check bool) "song completed" true result.Mp3.completed;
  Alcotest.(check int) "no recoveries needed" 0 result.Mp3.recoveries

let test_mp3_recovers_with_hiccup () =
  let t = boot () in
  System.start_services t [ System.spec_audio () ];
  let result = Mp3.fresh_result () in
  ignore (System.spawn_app t ~name:"mp3" (Mp3.make ~song_bytes:200_000 result));
  ignore
    (Engine.schedule t.System.engine ~after:400_000 (fun () ->
         ignore (System.kill_service_once t ~target:"chr.audio")));
  let finished = System.run_until t ~timeout:120_000_000 (fun () -> result.Mp3.finished) in
  Alcotest.(check bool) "player finished" true finished;
  Alcotest.(check bool) "song completed despite the crash" true result.Mp3.completed;
  Alcotest.(check bool) "player had to recover" true (result.Mp3.recoveries >= 1);
  Alcotest.(check int) "driver was reincarnated" 1
    (Reincarnation.restarts_of t.System.rs "chr.audio");
  (* The listener heard it: buffered samples died with the driver. *)
  Alcotest.(check bool) "hiccup occurred (underruns)" true
    (Audio_dev.underruns t.System.audio >= 1);
  (* The player's write met the dead driver: VFS counts the stale
     endpoint on the data path as it does on open and ioctl. *)
  Alcotest.(check int) "stale endpoint counted" 1
    (Resilix_obs.Metrics.counter_value
       (Resilix_obs.Metrics.snapshot t.System.metrics)
       "vfs.chardev.stale_endpoints")

let test_mp3_legacy_gives_up () =
  let t = boot () in
  System.start_services t [ System.spec_audio () ];
  let result = Mp3.fresh_result () in
  ignore
    (System.spawn_app t ~name:"mp3-legacy"
       (Mp3.make ~song_bytes:200_000 ~recovery_aware:false result));
  ignore
    (Engine.schedule t.System.engine ~after:400_000 (fun () ->
         ignore (System.kill_service_once t ~target:"chr.audio")));
  let finished = System.run_until t ~timeout:120_000_000 (fun () -> result.Mp3.finished) in
  Alcotest.(check bool) "player finished" true finished;
  Alcotest.(check bool) "legacy player aborted" true result.Mp3.gave_up;
  Alcotest.(check bool) "song did not complete" false result.Mp3.completed

let test_lpd_duplicates_but_completes () =
  let t = boot () in
  System.start_services t [ System.spec_printer () ];
  let job = String.init 30_000 (fun i -> Char.chr (65 + (i mod 26))) in
  let result = Lpd.fresh_result () in
  ignore (System.spawn_app t ~name:"lpd" (Lpd.make ~jobs:[ job ] result));
  ignore
    (Engine.schedule t.System.engine ~after:300_000 (fun () ->
         ignore (System.kill_service_once t ~target:"chr.printer")));
  let finished = System.run_until t ~timeout:120_000_000 (fun () -> result.Lpd.finished) in
  Alcotest.(check bool) "spooler finished" true finished;
  Alcotest.(check int) "job eventually printed" 1 result.Lpd.jobs_done;
  Alcotest.(check bool) "job was reissued" true (result.Lpd.resubmissions >= 1);
  (* Let the printer drain, then inspect the paper trail. *)
  System.run t ~until:(Engine.now t.System.engine + 3_000_000);
  let printed = Printer_dev.printed t.System.printer in
  let contains_suffix_of_job s =
    (* The tail of the job must appear in full — the job completed. *)
    let tail = String.sub job (String.length job - 1000) 1000 in
    let rec scan i =
      i + 1000 <= String.length s && (String.sub s i 1000 = tail || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "job tail was printed" true (contains_suffix_of_job printed);
  Alcotest.(check bool) "duplicate output happened (reissue is not transparent)" true
    (String.length printed > String.length job)

let test_cd_burn_clean () =
  let t = boot () in
  System.start_services t [ System.spec_cd () ];
  let data = String.init 100_000 (fun i -> Char.chr (i land 0xFF)) in
  let result = Cdburn.fresh_result () in
  ignore (System.spawn_app t ~name:"cdburn" (Cdburn.make ~data result));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> result.Cdburn.finished) in
  Alcotest.(check bool) "burn finished" true finished;
  Alcotest.(check bool) "burn succeeded" true result.Cdburn.success;
  (match Cd_dev.disc t.System.cd with
  | Cd_dev.Complete -> ()
  | _ -> Alcotest.fail "disc should be complete");
  Alcotest.(check string) "burned image matches" data (Cd_dev.burned t.System.cd)

let test_cd_burn_ruined_by_crash () =
  let t = boot () in
  System.start_services t [ System.spec_cd () ];
  let data = String.init 400_000 (fun i -> Char.chr (i land 0xFF)) in
  let result = Cdburn.fresh_result () in
  ignore (System.spawn_app t ~name:"cdburn" (Cdburn.make ~data result));
  ignore
    (Engine.schedule t.System.engine ~after:20_000 (fun () ->
         ignore (System.kill_service_once t ~target:"chr.cd")));
  let finished = System.run_until t ~timeout:60_000_000 (fun () -> result.Cdburn.finished) in
  Alcotest.(check bool) "burn finished" true finished;
  Alcotest.(check bool) "burn failed" false result.Cdburn.success;
  Alcotest.(check bool) "error was reported to the user" true result.Cdburn.error_reported;
  (* The gap watchdog ruins the disc shortly after the laser stopped. *)
  System.run t ~until:(Engine.now t.System.engine + 2_000_000);
  match Cd_dev.disc t.System.cd with
  | Cd_dev.Ruined -> ()
  | Cd_dev.Blank -> Alcotest.fail "disc should be ruined, is blank"
  | Cd_dev.In_session -> Alcotest.fail "disc should be ruined, still in session"
  | Cd_dev.Complete -> Alcotest.fail "disc should be ruined, claims complete"

let tests =
  [
    Alcotest.test_case "mp3 player (no faults)" `Quick test_mp3_clean;
    Alcotest.test_case "mp3 recovers with hiccup" `Quick test_mp3_recovers_with_hiccup;
    Alcotest.test_case "legacy mp3 gives up" `Quick test_mp3_legacy_gives_up;
    Alcotest.test_case "lpd reissues, duplicates possible" `Quick test_lpd_duplicates_but_completes;
    Alcotest.test_case "cd burn (no faults)" `Quick test_cd_burn_clean;
    Alcotest.test_case "cd burn ruined by driver crash" `Quick test_cd_burn_ruined_by_crash;
  ]
