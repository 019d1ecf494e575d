module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Signal = Resilix_proto.Signal
module Spec = Resilix_proto.Spec
module Wellknown = Resilix_proto.Wellknown
module Policy = Resilix_core.Policy
module Reincarnation = Resilix_core.Reincarnation
module Service = Resilix_core.Service

type opts = {
  seed : int;
  engine_policy : Engine.policy;
  inet_driver : string;
  disk_mb : int;
  fs_files : (string * int) list;
  peer_files : (string * (int * int)) list;
  nic_wedge_prob : float;
  policies : (string * Policy.t) list;
}

let default_opts =
  {
    seed = 42;
    engine_policy = Engine.Fifo;
    inet_driver = "eth.rtl8139";
    disk_mb = 64;
    fs_files = [];
    peer_files = [];
    nic_wedge_prob = 0.;
    policies =
      [
        ("direct", Policy.direct);
        ("generic", Policy.generic ~alert:"root" ());
        ("breaker", Policy.breaker ());
      ];
  }

type t = {
  engine : Engine.t;
  kernel : Kernel.t;
  trace : Trace.t;
  rng : Rng.t;
  bus : Resilix_hw.Bus.t;
  store : Resilix_hw.Blockstore.t;
  nic_rtl : Resilix_hw.Nic.t;
  nic_dp : Resilix_hw.Nic.t;
  disk : Resilix_hw.Disk.t;
  floppy : Resilix_hw.Disk.t;
  audio : Resilix_hw.Audio_dev.t;
  printer : Resilix_hw.Printer_dev.t;
  cd : Resilix_hw.Cd_dev.t;
  rtl_link : Resilix_hw.Link.t;
  dp_link : Resilix_hw.Link.t;
  rtl_peer : Resilix_net.Peer.t;
  dp_peer : Resilix_net.Peer.t;
  pm : Resilix_pm.Proc_manager.t;
  ds : Resilix_datastore.Data_store.t;
  rs : Reincarnation.t;
  vfs : Resilix_fs.Vfs.t;
  mfs : Resilix_fs.Mfs.t;
  inet : Resilix_net.Inet.t;
  metrics : Resilix_obs.Metrics.t;
  spans : Resilix_obs.Span.t;
  mutable app_counter : int;
}

(* ------------------------------------------------------------------ *)
(* Canned service specs                                                *)
(* ------------------------------------------------------------------ *)

let args_of ~base ~irq = [ string_of_int base; string_of_int irq ]

(* A VM driver's spec: its program, and least authority over exactly
   the port window its device model claims plus its IRQ line. *)
let device_spec ~name ~ipc_to ~base ~ports ~irq ?heartbeat_period ~policy ~mem_kb () =
  Spec.make ~name ~program:name ~args:(args_of ~base ~irq)
    ~privileges:(Privilege.driver ~ipc_to ~io_ports:[ (base, base + ports - 1) ] ~irqs:[ irq ])
    ?heartbeat_period ~policy ~mem_kb ()

let spec_rtl8139 ?(policy = "direct") () =
  device_spec ~name:"eth.rtl8139" ~ipc_to:[ "inet" ] ~base:Hwmap.rtl8139_base
    ~ports:Resilix_hw.Nic8139.ports ~irq:Hwmap.rtl8139_irq ~heartbeat_period:500_000 ~policy
    ~mem_kb:Resilix_drivers.Netdriver_rtl8139.memory_kb ()

let spec_dp8390 ?(policy = "direct") ?(heartbeat_period = 500_000) () =
  device_spec ~name:"eth.dp8390" ~ipc_to:[ "inet" ] ~base:Hwmap.dp8390_base
    ~ports:Resilix_hw.Nic8390.ports ~irq:Hwmap.dp8390_irq ~heartbeat_period ~policy
    ~mem_kb:Resilix_drivers.Netdriver_dp8390.memory_kb ()

let spec_sata ?(policy = "direct") () =
  device_spec ~name:"blk.sata" ~ipc_to:[ "mfs"; "vfs" ] ~base:Hwmap.sata_base
    ~ports:Resilix_hw.Disk.ports ~irq:Hwmap.sata_irq ~heartbeat_period:500_000 ~policy
    ~mem_kb:Resilix_drivers.Blockdriver_disk.memory_kb ()

let spec_floppy () =
  device_spec ~name:"blk.floppy" ~ipc_to:[ "mfs"; "vfs" ] ~base:Hwmap.floppy_base
    ~ports:Resilix_hw.Disk.ports ~irq:Hwmap.floppy_irq ~policy:"generic"
    ~mem_kb:Resilix_drivers.Blockdriver_disk.memory_kb ()

let spec_ramdisk () =
  let size_kb = 512 in
  Spec.make ~name:"blk.ram" ~program:"blk.ram" ~args:[ string_of_int size_kb ]
    ~privileges:(Privilege.driver ~ipc_to:[ "mfs"; "vfs" ] ~io_ports:[] ~irqs:[])
    ~policy:""
    ~mem_kb:(Resilix_drivers.Blockdriver_ramdisk.memory_needed_kb ~size_kb)
    ()

let spec_audio () =
  device_spec ~name:"chr.audio" ~ipc_to:[ "vfs" ] ~base:Hwmap.audio_base
    ~ports:Resilix_hw.Audio_dev.ports ~irq:Hwmap.audio_irq ~policy:"direct"
    ~mem_kb:Resilix_drivers.Chardriver_audio.memory_kb ()

let spec_printer () =
  device_spec ~name:"chr.printer" ~ipc_to:[ "vfs" ] ~base:Hwmap.printer_base
    ~ports:Resilix_hw.Printer_dev.ports ~irq:Hwmap.printer_irq ~policy:"direct"
    ~mem_kb:Resilix_drivers.Chardriver_printer.memory_kb ()

let spec_cd () =
  device_spec ~name:"chr.cd" ~ipc_to:[ "vfs" ] ~base:Hwmap.cd_base ~ports:Resilix_hw.Cd_dev.ports
    ~irq:Hwmap.cd_irq ~policy:"direct" ~mem_kb:Resilix_drivers.Chardriver_cd.memory_kb ()

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)
(* ------------------------------------------------------------------ *)

let server_priv = Privilege.server ~ipc_to:Privilege.All

let boot ?(opts = default_opts) () =
  let engine = Engine.create ~policy:opts.engine_policy () in
  let trace = Trace.create () in
  let master_rng = Rng.create ~seed:opts.seed in
  let rng_kernel = Rng.split master_rng in
  let rng_hw = Rng.split master_rng in
  let rng_links = Rng.split master_rng in
  let rng_peers = Rng.split master_rng in
  (* One metric registry and one span collector for the whole machine:
     the kernel registers its counters in the former, RS records
     recoveries in the latter, and dependents (MFS, INET) mark their
     re-open phase on the same spans. *)
  let metrics = Resilix_obs.Metrics.create () in
  let spans = Resilix_obs.Span.create () in
  let kernel = Kernel.create ~engine ~trace ~rng:rng_kernel ~metrics () in
  (* --- hardware --- *)
  let bus = Resilix_hw.Bus.create () in
  Resilix_hw.Bus.attach bus kernel;
  (* Both links are 100 Mbit Ethernet: ~12 bytes/us.  This is what
     capped the paper's wget at ~10.8 MB/s. *)
  let rtl_link = Resilix_hw.Link.create ~engine ~rng:(Rng.split rng_links) ~bytes_per_us:12 () in
  let dp_link = Resilix_hw.Link.create ~engine ~rng:(Rng.split rng_links) ~bytes_per_us:12 () in
  (* Only the NICs draw from [rng_hw] (the wedge); the other devices
     just set ERR on garbage. *)
  let nic_rtl =
    Resilix_hw.Nic8139.create ~kernel ~bus ~base:Hwmap.rtl8139_base ~irq:Hwmap.rtl8139_irq
      ~link:rtl_link ~side:Resilix_hw.Link.A ~mac:Hwmap.rtl8139_mac ~rng:(Rng.split rng_hw)
      ~wedge_prob:opts.nic_wedge_prob ()
  in
  let nic_dp =
    Resilix_hw.Nic8390.create ~kernel ~bus ~base:Hwmap.dp8390_base ~irq:Hwmap.dp8390_irq
      ~link:dp_link ~side:Resilix_hw.Link.A ~mac:Hwmap.dp8390_mac ~rng:(Rng.split rng_hw)
      ~wedge_prob:opts.nic_wedge_prob ()
  in
  let store =
    Resilix_hw.Blockstore.create ~seed:(opts.seed * 7919) ~sectors:(opts.disk_mb * 2048)
      ~sector_size:512
  in
  let disk =
    Resilix_hw.Disk.create ~kernel ~bus ~base:Hwmap.sata_base ~irq:Hwmap.sata_irq ~store ()
  in
  let floppy_store =
    Resilix_hw.Blockstore.create ~seed:(opts.seed * 104729) ~sectors:2880 ~sector_size:512
  in
  let floppy =
    Resilix_hw.Disk.create ~kernel ~bus ~base:Hwmap.floppy_base ~irq:Hwmap.floppy_irq
      ~store:floppy_store ~rate_bytes_per_us:1 ~seek_us:20_000 ()
  in
  let audio = Resilix_hw.Audio_dev.create ~kernel ~bus ~base:Hwmap.audio_base ~irq:Hwmap.audio_irq () in
  let printer =
    Resilix_hw.Printer_dev.create ~kernel ~bus ~base:Hwmap.printer_base ~irq:Hwmap.printer_irq ()
  in
  let cd = Resilix_hw.Cd_dev.create ~kernel ~bus ~base:Hwmap.cd_base ~irq:Hwmap.cd_irq () in
  (* --- remote peers --- *)
  let rtl_peer =
    Resilix_net.Peer.create ~engine ~rng:(Rng.split rng_peers) ~link:rtl_link
      ~side:Resilix_hw.Link.B ~ip:Hwmap.rtl_peer_ip ~mac:Hwmap.rtl_peer_mac
      ~files:opts.peer_files ()
  in
  let dp_peer =
    Resilix_net.Peer.create ~engine ~rng:(Rng.split rng_peers) ~link:dp_link
      ~side:Resilix_hw.Link.B ~ip:Hwmap.dp_peer_ip ~mac:Hwmap.dp_peer_mac ()
  in
  (* --- format the disk --- *)
  let mk =
    Resilix_fs.Mkfs.format
      ~write_block:(fun block data -> Resilix_hw.Blockstore.write store ~lba:(block * 8) data)
      ~total_blocks:(opts.disk_mb * 256) ~inode_count:1024
  in
  let mk =
    List.fold_left
      (fun mk (name, size) -> Resilix_fs.Mkfs.add_contiguous_file mk ~name ~size)
      mk opts.fs_files
  in
  Resilix_fs.Mkfs.finish mk;
  (* --- driver binaries --- *)
  Kernel.register_program kernel "eth.rtl8139" Resilix_drivers.Netdriver_rtl8139.program;
  Kernel.register_program kernel "eth.dp8390" Resilix_drivers.Netdriver_dp8390.program;
  Kernel.register_program kernel "blk.sata" Resilix_drivers.Blockdriver_disk.program;
  Kernel.register_program kernel "blk.floppy" Resilix_drivers.Blockdriver_disk.program;
  Kernel.register_program kernel "blk.ram" Resilix_drivers.Blockdriver_ramdisk.program;
  Kernel.register_program kernel "chr.audio" Resilix_drivers.Chardriver_audio.program;
  Kernel.register_program kernel "chr.printer" Resilix_drivers.Chardriver_printer.program;
  Kernel.register_program kernel "chr.cd" Resilix_drivers.Chardriver_cd.program;
  (* --- trusted servers (Fig. 1) --- *)
  let pm = Resilix_pm.Proc_manager.create () in
  let ds = Resilix_datastore.Data_store.create () in
  let rs =
    Reincarnation.create
      ~register_program:(Kernel.register_program kernel)
      ~policies:opts.policies
      ~complainers:[ Wellknown.vfs; Wellknown.mfs; Wellknown.inet ]
      ~spans ~metrics ()
  in
  let vfs =
    Resilix_fs.Vfs.create
      ~chardevs:
        [
          ("/dev/audio", ("chr.audio", 0));
          ("/dev/printer", ("chr.printer", 0));
          ("/dev/cd", ("chr.cd", 0));
        ]
      ~metrics ()
  in
  let mfs = Resilix_fs.Mfs.create ~driver_key:"blk.sata" ~spans ~metrics () in
  let gateway_mac =
    if String.equal opts.inet_driver "eth.dp8390" then Hwmap.dp_peer_mac else Hwmap.rtl_peer_mac
  in
  let inet =
    Resilix_net.Inet.create ~local_ip:Hwmap.local_ip ~gateway_mac ~driver_key:opts.inet_driver
      ~spans ~metrics ()
  in
  Kernel.spawn_wellknown kernel ~ep:Wellknown.pm ~name:Wellknown.name_pm
    ~priv:
      {
        server_priv with
        Privilege.kcalls =
          Privilege.Only [ "proc_create"; "proc_kill"; "reap_exit"; "alarm" ];
      }
    (Resilix_pm.Proc_manager.body pm);
  Kernel.spawn_wellknown kernel ~ep:Wellknown.ds ~name:Wellknown.name_ds ~priv:server_priv
    (Resilix_datastore.Data_store.body ds);
  Kernel.spawn_wellknown kernel ~ep:Wellknown.rs ~name:Wellknown.name_rs
    ~priv:{ server_priv with Privilege.kcalls = Privilege.All }
    (Reincarnation.body rs);
  Kernel.spawn_wellknown kernel ~ep:Wellknown.vfs ~name:Wellknown.name_vfs ~priv:server_priv
    ~mem_kb:Resilix_fs.Vfs.memory_kb (Resilix_fs.Vfs.body vfs);
  Kernel.spawn_wellknown kernel ~ep:Wellknown.mfs ~name:Wellknown.name_mfs ~priv:server_priv
    ~mem_kb:Resilix_fs.Mfs.memory_kb (Resilix_fs.Mfs.body mfs);
  Kernel.spawn_wellknown kernel ~ep:Wellknown.inet ~name:Wellknown.name_inet ~priv:server_priv
    ~mem_kb:1024 (Resilix_net.Inet.body inet);
  {
    engine;
    kernel;
    trace;
    rng = master_rng;
    bus;
    store;
    nic_rtl;
    nic_dp;
    disk;
    floppy;
    audio;
    printer;
    cd;
    rtl_link;
    dp_link;
    rtl_peer;
    dp_peer;
    pm;
    ds;
    rs;
    vfs;
    mfs;
    inet;
    metrics;
    spans;
    app_counter = 0;
  }

let obs_lines ?label t =
  let snapshot = Resilix_obs.Metrics.snapshot ~at:(Engine.now t.engine) t.metrics in
  Resilix_obs.Export.metric_lines ?label snapshot
  @ Resilix_obs.Export.span_lines ?label t.spans

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The program key is made unique with a per-boot counter: a global
   one would leak cross-trial state into trace events (the key appears
   in [Spawn] payloads), breaking trial hermeticity. *)
let spawn_app t ~name ?(priv = Privilege.app) body =
  t.app_counter <- t.app_counter + 1;
  let key = Printf.sprintf "app#%s#%d" name t.app_counter in
  Kernel.register_program t.kernel key body;
  match Kernel.spawn_dynamic t.kernel ~name ~program:key ~args:[] ~priv ~mem_kb:256 with
  | Ok ep -> ep
  | Error e -> failwith ("spawn_app failed: " ^ Errno.to_string e)

let run ?until t = Engine.run ?until t.engine

let run_until t ?(timeout = 60_000_000) pred =
  Engine.run_until t.engine ~deadline:(Engine.now t.engine + timeout) pred

let start_services t specs =
  let done_flag = ref false in
  ignore
    (spawn_app t ~name:"service-setup" (fun () ->
         List.iter
           (fun spec ->
             match Service.up spec with
             | Ok () -> ()
             | Error e ->
                 Api.panic
                   (Printf.sprintf "service up %s failed: %s" spec.Spec.name (Errno.to_string e)))
           specs;
         List.iter
           (fun spec ->
             match Service.wait_until_up spec.Spec.name with
             | Ok _ -> ()
             | Error e ->
                 Api.panic
                   (Printf.sprintf "service %s did not come up: %s" spec.Spec.name
                      (Errno.to_string e)))
           specs;
         done_flag := true));
  if not (run_until t (fun () -> !done_flag)) then
    failwith "start_services: services did not come up"

(* The paper's crash simulation (Sec. 7.1): "a tiny shell script that
   first initiates the I/O transfer, and then repeatedly looks up the
   driver's process ID and kills the driver using a SIGKILL signal". *)
let start_crash_script t ~target ~interval ?count () =
  ignore
    (spawn_app t ~name:("crash-" ^ target) (fun () ->
         let remaining = ref (Option.value count ~default:max_int) in
         while !remaining > 0 do
           Api.sleep interval;
           decr remaining;
           match Api.sendrec Wellknown.pm (Message.Pm_pidof { name = target }) with
           | Ok (Sysif.Rx_msg { body = Message.Pm_pidof_reply { result = Ok pid }; _ }) ->
               ignore
                 (Api.sendrec Wellknown.pm (Message.Pm_kill { pid; signal = Signal.Sig_kill }))
           | _ -> () (* between incarnations: try again next round *)
         done))

let kill_service_once t ~target =
  match Kernel.find_by_name t.kernel target with
  | Some ep -> Kernel.kill t.kernel ep (Resilix_proto.Status.Killed Signal.Sig_kill)
  | None -> Error Errno.E_noent

(* The drivers a fault can be injected into: the code image each one
   loads, as (origin, instruction count). *)
let fault_images =
  [
    ("eth.rtl8139", Resilix_drivers.Netdriver_rtl8139.image_info ~base:Hwmap.rtl8139_base);
    ("eth.dp8390", Resilix_drivers.Netdriver_dp8390.image_info ~base:Hwmap.dp8390_base);
    ("blk.sata", Resilix_drivers.Blockdriver_disk.image_info ~base:Hwmap.sata_base);
  ]

let inject_fault t ~target ftype =
  match (List.assoc_opt target fault_images, Kernel.find_by_name t.kernel target) with
  | None, _ | _, None -> None
  | Some (origin, insn_count), Some ep -> (
      match Kernel.proc_memory t.kernel ep with
      | None -> None
      | Some mem -> Resilix_vm.Fault.inject t.rng mem ~base:origin ~insn_count ftype)
