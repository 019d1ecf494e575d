(* Quickstart: boot the machine, start a guarded driver, kill it, and
   watch the reincarnation server bring it back.

   Run with:  dune exec examples/quickstart.exe *)

module System = Resilix_system.System
module Engine = Resilix_sim.Engine
module Reincarnation = Resilix_core.Reincarnation
module Span = Resilix_obs.Span
module Status = Resilix_proto.Status

let () =
  (* 1. Boot the simulated machine: microkernel, devices, and the
        trusted servers (PM, DS, RS, VFS, MFS, INET) of Fig. 1. *)
  let t = System.boot () in

  (* 2. Start the SATA driver through the service utility.  The spec
        carries its least-authority privileges, heartbeat period and
        recovery policy — the paper's Sec. 5 arguments. *)
  System.start_services t [ System.spec_sata ~policy:"direct" () ];
  Printf.printf "driver up: %b\n%!" (Reincarnation.service_up t.System.rs "blk.sata");

  (* 3. Simulate a driver crash one second in. *)
  ignore
    (Engine.schedule t.System.engine ~after:1_000_000 (fun () ->
         Printf.printf "[%.3fs] killing blk.sata with SIGKILL\n%!"
           (float_of_int (Engine.now t.System.engine) /. 1e6);
         ignore (System.kill_service_once t ~target:"blk.sata")));

  (* 4. Run for three simulated seconds and report what RS observed. *)
  System.run t ~until:3_000_000;
  List.iter
    (fun s ->
      Printf.printf "[%.3fs] defect in %s: %s (failure #%d)%s\n"
        (float_of_int s.Span.opened_at /. 1e6)
        s.Span.component
        (Status.defect_name s.Span.defect)
        s.Span.repetition
        (match Span.total_us s with
        | Some us -> Printf.sprintf " -> recovered %.1f ms later" (float_of_int us /. 1e3)
        | None -> " -> NOT recovered"))
    (Span.spans t.System.spans);
  Printf.printf "driver up again: %b\n" (Reincarnation.service_up t.System.rs "blk.sata")
