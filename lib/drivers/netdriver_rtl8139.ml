module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Message = Resilix_proto.Message
module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp

(* Address-space layout. *)
let image_origin = 0x1000
let tx_buf = 0x4000
let rx_buf = 0x4800
let buf_size = 2048
let memory_kb = 32
let max_frame = 1514

(* Register indices (ports are base + index). *)
let r_id = 0
let r_cmd = 1
let r_config = 2
let r_isr = 3
let r_txh = 4
let r_txlen = 5
let r_txgo = 6
let r_rxh = 7
let r_rxcap = 8
let r_rxlen = 9
let r_maclo = 10
let r_machi = 11

let isr_rx = 0x1
let isr_tx = 0x4
let isr_err = 0x8

(* The driver's device-facing code, in driver-VM assembly. *)
let code ~base =
  let p i = base + i in
  Isa.
    [
      (* reset: check the chip id and start a hardware reset; the
         OCaml side then polls "cmdstat" until the reset completes. *)
      ( "reset",
        [ In (R0, p r_id); Chkeq (R0, 0x8139); Movi (R4, 0x10); Out (p r_cmd, R4); Movi (R0, 0); Ret ] );
      ("cmdstat", [ In (R0, p r_cmd); Chklt (R0, 0x20); Ret ]);
      (* setup: r1 = rx dma handle, r2 = rx capacity, r3 = promisc.
         Returns MAC in r5 (low) / r6 (high). *)
      ( "setup",
        [
          Out (p r_config, R3);
          Out (p r_rxh, R1);
          Out (p r_rxcap, R2);
          Movi (R4, 0x0C);
          Out (p r_cmd, R4);
          In (R5, p r_maclo);
          In (R6, p r_machi);
          Movi (R0, 0);
          Ret;
        ] );
      (* tx: r1 = frame length, r2 = tx dma handle. *)
      ( "tx",
        [
          Chknz R1;
          Chklt (R1, max_frame + 1);
          Out (p r_txh, R2);
          Out (p r_txlen, R1);
          Movi (R4, 1);
          Out (p r_txgo, R4);
          Movi (R0, 0);
          Ret;
        ] );
      (* isr: returns pending interrupt bits in r0 (no ack). *)
      ("isr", [ In (R0, p r_isr); Chklt (R0, 16); Ret ]);
      (* rxlen: returns the delivered frame length in r0. *)
      ("rxlen", [ In (R0, p r_rxlen); Chknz R0; Chklt (R0, buf_size + 1); Ret ]);
      ("rxack", [ Movi (R4, isr_rx); Out (p r_isr, R4); Movi (R0, 0); Ret ]);
      ("txack", [ Movi (R4, isr_tx); Out (p r_isr, R4); Movi (R0, 0); Ret ]);
    ]

let image ~base = Image.assemble ~origin:image_origin (code ~base)

let image_info ~base =
  let img = image ~base in
  (Image.origin img, Image.insn_count img)

let parse_args () =
  match Api.args () with
  | [ base; irq ] -> (int_of_string base, int_of_string irq)
  | _ -> Api.panic "rtl8139: expected args [base; irq]"

let program () =
  let base, irq = parse_args () in
  let programs = Image.load (image ~base) in
  (* Resolve every program once; [exec] then costs no lookup. *)
  let handle name = (name, Image.find programs name) in
  let p_tx = handle "tx"
  and p_reset = handle "reset"
  and p_cmdstat = handle "cmdstat"
  and p_setup = handle "setup"
  and p_isr = handle "isr"
  and p_rxlen = handle "rxlen"
  and p_rxack = handle "rxack"
  and p_txack = handle "txack" in
  let regs = Array.make 8 0 in
  let exec (name, program) ~r1 ~r2 ~r3 =
    Array.fill regs 0 8 0;
    regs.(1) <- r1;
    regs.(2) <- r2;
    regs.(3) <- r3;
    match Interp.run program ~regs with
    | r0 -> Ok r0
    | exception Interp.Check_failed { detail; _ } ->
        Api.panic (Printf.sprintf "rtl8139: consistency check failed in %s: %s" name detail)
    | exception Interp.Io_failed { port } ->
        Api.panic (Printf.sprintf "rtl8139: unexpected I/O failure on port %d in %s" port name)
  in
  (match Api.irq_register irq with
  | Ok () -> ()
  | Error _ -> Api.panic "rtl8139: cannot register IRQ");
  (* DMA setup: grant the device access to the two frame buffers. *)
  let dma_handle ~addr =
    match
      Api.grant_create ~for_:Resilix_proto.Wellknown.hardware ~base:addr ~len:buf_size
        ~access:Sysif.Read_write
    with
    | Error _ -> Api.panic "rtl8139: grant_create failed"
    | Ok g -> (
        match Api.iommu_map g with
        | Ok h -> h
        | Error _ -> Api.panic "rtl8139: iommu_map failed")
  in
  let h_tx = dma_handle ~addr:tx_buf in
  let h_rx = dma_handle ~addr:rx_buf in
  let mem = Api.memory () in
  (* Mutable driver state; all lost (by design) on a crash. *)
  let inet = ref None in
  let rx_slot = ref None (* (src, grant, maxlen) posted by INET *) in
  let stash = Queue.create () in
  let stash_cap = 32 in
  let tx_busy = ref false in
  let tx_queue = Queue.create () in
  let deliver_rx () =
    match (!rx_slot, Queue.is_empty stash) with
    | Some (src, grant, maxlen), false ->
        let frame = Queue.pop stash in
        let len = min (Bytes.length frame) maxlen in
        Memory.blit_in mem ~addr:rx_buf ~src:frame ~src_off:0 ~len;
        (match Api.safecopy_to ~owner:src ~grant ~grant_off:0 ~local_addr:rx_buf ~len with
        | Ok () ->
            rx_slot := None;
            Driver_lib.task_reply src ~sent:false ~received:true ~read_len:len
        | Error _ ->
            (* The network server restarted underneath us; drop. *)
            rx_slot := None)
    | (Some _ | None), _ -> ()
  in
  let start_tx ~src ~grant ~len =
    match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:tx_buf ~len with
    | Error _ -> () (* requester is gone *)
    | Ok () ->
        tx_busy := true;
        ignore (exec p_tx ~r1:len ~r2:h_tx ~r3:0)
  in
  let handlers =
    {
      Driver_lib.nh_conf =
        (fun ~src ~mode ->
          inet := Some src;
          let promisc = if mode.Message.promisc then 1 else 0 in
          match exec p_reset ~r1:0 ~r2:0 ~r3:0 with
          | Error e -> Error e
          | Ok _ -> (
              (* The chip takes real time to come out of reset; poll
                 like a real driver would. *)
              let rec wait_ready () =
                match exec p_cmdstat ~r1:0 ~r2:0 ~r3:0 with
                | Ok bits when bits land 0x10 <> 0 ->
                    Api.sleep 10_000;
                    wait_ready ()
                | other -> other
              in
              match wait_ready () with
              | Error e -> Error e
              | Ok _ -> (
                  match exec p_setup ~r1:h_rx ~r2:buf_size ~r3:promisc with
                  | Ok _ -> Ok (regs.(5) lor (regs.(6) lsl 32))
                  | Error e -> Error e)));
      nh_writev =
        (fun ~src ~grant ~len ->
          if len <= 0 || len > max_frame then
            Api.panic "rtl8139: network server sent a bogus frame length"
          else if !tx_busy then Queue.push (src, grant, len) tx_queue
          else start_tx ~src ~grant ~len);
      nh_readv =
        (fun ~src ~grant ~len ->
          rx_slot := Some (src, grant, len);
          deliver_rx ());
      nh_getstat = (fun ~src:_ -> (0, 0, 0));
      nh_irq =
        (fun ~line:_ ->
          match exec p_isr ~r1:0 ~r2:0 ~r3:0 with
          | Error _ -> ()
          | Ok bits ->
              if bits land isr_err <> 0 then Api.panic "rtl8139: device reported an error";
              if bits land isr_rx <> 0 then begin
                match exec p_rxlen ~r1:0 ~r2:0 ~r3:0 with
                | Ok len ->
                    let frame = Memory.read mem ~addr:rx_buf ~len in
                    ignore (exec p_rxack ~r1:0 ~r2:0 ~r3:0);
                    if Queue.length stash < stash_cap then Queue.push frame stash;
                    deliver_rx ()
                | Error _ -> ()
              end;
              if bits land isr_tx <> 0 then begin
                ignore (exec p_txack ~r1:0 ~r2:0 ~r3:0);
                tx_busy := false;
                (match !inet with
                | Some dst -> Driver_lib.task_reply dst ~sent:true ~received:false ~read_len:0
                | None -> ());
                match Queue.take_opt tx_queue with
                | Some (src, grant, len) -> start_tx ~src ~grant ~len
                | None -> ()
              end);
    }
  in
  Driver_lib.run_net handlers
