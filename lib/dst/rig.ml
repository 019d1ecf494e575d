module System = Resilix_system.System
module Hwmap = Resilix_system.Hwmap
module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel
module Reincarnation = Resilix_core.Reincarnation
module Fault = Resilix_vm.Fault
module Nic = Resilix_hw.Nic
module Filegen = Resilix_net.Filegen
module Wget = Resilix_apps.Wget
module Dd = Resilix_apps.Dd

(* Every machine gets an 8-MB disk; dd's also holds its file. *)
let base = { System.default_opts with System.disk_mb = 8 }

(* Extra [policies] join the default registry; [programs] are
   registered before the service starts, so a spec may name one. *)
let boot ?(engine_policy = Engine.Fifo) ?(programs = []) ?(policies = []) ~seed opts spec =
  let policies = System.default_opts.System.policies @ policies in
  let t = System.boot ~opts:{ opts with System.seed; engine_policy; policies } () in
  List.iter (fun (name, body) -> Kernel.register_program t.System.kernel name body) programs;
  System.start_services t [ spec ];
  t

let machine ?engine_policy ?programs ?policies ~seed spec =
  boot ?engine_policy ?programs ?policies ~seed base spec

let kill_after t ~after target =
  ignore
    (Engine.schedule t.System.engine ~after (fun () ->
         ignore (System.kill_service_once t ~target)))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let file_seed = 77

let wget ?engine_policy ~seed ~size () =
  let opts = { base with System.peer_files = [ ("file.bin", (size, file_seed)) ] } in
  let t = boot ?engine_policy ~seed opts (System.spec_rtl8139 ()) in
  let r = Wget.fresh_result () in
  ignore
    (System.spawn_app t ~name:"wget"
       (Wget.make ~server:Hwmap.rtl_peer_ip ~port:80 ~file:"file.bin" r));
  (t, r)

let wget_intact ~size r =
  r.Wget.ok && String.equal r.Wget.digest (Filegen.digest ~seed:file_seed ~size)

let dd ~seed ~size =
  let opts =
    { base with System.fs_files = [ ("big.bin", size) ]; disk_mb = (size / 1024 / 1024) + 8 }
  in
  let t = boot ~seed opts (System.spec_sata ()) in
  let r = Dd.fresh_result () in
  ignore (System.spawn_app t ~name:"dd" (Dd.make ~path:"/big.bin" r));
  (t, r)

let dp8390 = "eth.dp8390"

let udp_sink ?engine_policy ?policies ?(wedge_prob = 0.) ?ack_every ~seed ~policy () =
  let opts = { base with System.inet_driver = dp8390; nic_wedge_prob = wedge_prob } in
  let t =
    boot ?engine_policy ?policies ~seed opts
      (System.spec_dp8390 ~policy ~heartbeat_period:200_000 ())
  in
  let received = ref 0 in
  ignore
    (System.spawn_app t ~name:"udp-sink"
       (Resilix_apps.Udp_sink.make ?ack_every ~port:9 received));
  let _stop =
    Resilix_net.Peer.start_udp_stream t.System.dp_peer ~dst_ip:Hwmap.local_ip
      ~dst_mac:Hwmap.dp8390_mac ~dst_port:9 ~src_port:7777 ~payload_len:700 ~interval:10_000
  in
  (t, received)

(* ------------------------------------------------------------------ *)
(* Sec. 7.2 fault source                                               *)
(* ------------------------------------------------------------------ *)

(* Some faults are silent but disabling (e.g. an elided rx-enable
   write): the driver looks healthy, yet traffic stops and no driver
   code runs.  As in the paper's defect class 3, the "user" notices
   and asks RS for a restart, which reloads a clean binary. *)
let stall_watchdog t ~received ~bound ~pause =
  let last_rx = ref 0 and last_progress = ref 0 in
  fun () ->
    let now = Engine.now t.System.engine in
    if
      !received > !last_rx
      || (pause && Reincarnation.service_state t.System.rs dp8390 <> `Up)
    then begin
      last_rx := !received;
      last_progress := now;
      false
    end
    else if now - !last_progress > bound then begin
      last_progress := now;
      Result.is_ok (System.kill_service_once t ~target:dp8390)
    end
    else false

type injection = {
  started_at : int;
  injected : int;
  user_resets : int;
  bios_resets : int;
  by_fault_type : (string * int) list;
}

let inject_period = 20_000

let inject_loop t ~received ~faults ~pause =
  let engine = t.System.engine in
  System.run t ~until:(Engine.now engine + 1_000_000);
  let started_at = Engine.now engine in
  let watchdog = stall_watchdog t ~received ~bound:1_500_000 ~pause in
  let injected = ref 0 and user_resets = ref 0 and bios_resets = ref 0 in
  let types = Hashtbl.create 7 in
  (* A wedged card defeats driver-level recovery: the restarted driver
     keeps panicking on a dead device.  Perform the "low-level BIOS
     reset" the paper needed in those cases. *)
  let bios_reset () =
    let wedged = Nic.wedged t.System.nic_dp in
    if wedged then begin
      incr bios_resets;
      Nic.bios_reset t.System.nic_dp
    end;
    wedged
  in
  let finished = ref false in
  let rec tick () =
    if !injected >= faults then finished := true
    else begin
      if watchdog () then incr user_resets;
      ignore (bios_reset ());
      (* Only inject into a live, settled driver. *)
      (match Kernel.find_by_name t.System.kernel dp8390 with
      | Some _ -> (
          let ft = Fault.random_type t.System.rng in
          match System.inject_fault t ~target:dp8390 ft with
          | Some _ ->
              let name = Fault.to_string ft in
              incr injected;
              Hashtbl.replace types name (1 + Option.value ~default:0 (Hashtbl.find_opt types name))
          | None -> ())
      | None -> ());
      ignore (Engine.schedule engine ~after:inject_period tick)
    end
  in
  tick ();
  ignore (System.run_until t ~timeout:(faults * inject_period * 8) (fun () -> !finished));
  (* Let the final crash (if any) recover. *)
  System.run t ~until:(Engine.now engine + 5_000_000);
  if bios_reset () then System.run t ~until:(Engine.now engine + 5_000_000);
  {
    started_at;
    injected = !injected;
    user_resets = !user_resets;
    bios_resets = !bios_resets;
    by_fault_type = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) types []);
  }
