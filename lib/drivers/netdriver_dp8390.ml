module Api = Resilix_kernel.Sysif.Api
module Memory = Resilix_kernel.Memory
module Message = Resilix_proto.Message
module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp

let image_origin = 0x1000
let tx_buf = 0x4000
let rx_buf = 0x4800
let buf_size = 2048
let memory_kb = 32
let max_frame = 1514

let r_id = 0
let r_cmd = 1
let r_config = 2
let r_isr = 3
let r_data = 4
let r_txgo = 5
let r_rxlen = 6
let r_rxdone = 7
let r_maclo = 8
let r_machi = 9

let isr_rx = 0x1
let isr_tx = 0x4
let isr_err = 0x8

let code ~base =
  let p i = base + i in
  Isa.
    [
      (* reset / poll / setup, like a real NIC bring-up sequence. *)
      ( "reset",
        [
          In (R0, p r_id);
          Chknz R0;
          Chkeq (R0, 0x8390);
          Movi (R4, 0x10);
          Out (p r_cmd, R4);
          Movi (R0, 0);
          Ret;
        ] );
      ("cmdstat", [ In (R0, p r_cmd); Chklt (R0, 0x20); Ret ]);
      (* setup: r3 = promisc; MAC returned in r5/r6. *)
      ( "setup",
        [
          Chklt (R3, 2);
          Out (p r_config, R3);
          Movi (R4, 0x0C);
          Out (p r_cmd, R4);
          In (R5, p r_maclo);
          Chknz R5;
          In (R6, p r_machi);
          Chklt (R6, 0x10000);
          Movi (R0, 0);
          Ret;
        ] );
      (* tx: r1 = byte length, r2 = staging buffer address.  Pushes
         ceil(len/4) words through the data port, then fires TXGO. *)
      ( "tx",
        [
          Chknz R1;
          Chklt (R1, max_frame + 1);
          Mov (R3, R1);
          Addi (R3, 3);
          Shr (R3, 2);
          Chknz R3;
          Chklt (R3, (max_frame / 4) + 2);
          Mov (R5, R2);
          Chkeq (R5, tx_buf);
          Label "loop";
          Jz (R3, "done");
          (* defensive driver style: validate loop state before
             touching memory or the device *)
          Chklt (R3, (max_frame / 4) + 2);
          Chklt (R5, tx_buf + buf_size);
          Load (R6, R5, 0);
          Out (p r_data, R6);
          Addi (R5, 4);
          Addi (R3, -1);
          Jmp "loop";
          Label "done";
          (* loop postconditions: counter drained, cursor in range *)
          Chkeq (R3, 0);
          Chklt (R5, tx_buf + buf_size + 4);
          Out (p r_txgo, R1);
          Movi (R0, 0);
          Ret;
        ] );
      (* rx: r2 = destination buffer address; returns frame length in
         r0 (0 = nothing pending).  Pops the frame word by word, then
         releases it and acks the interrupt. *)
      ( "rx",
        [
          In (R1, p r_rxlen);
          Jz (R1, "empty");
          Chklt (R1, buf_size + 1);
          Mov (R3, R1);
          Addi (R3, 3);
          Shr (R3, 2);
          Chknz R3;
          Chklt (R3, (buf_size / 4) + 2);
          Mov (R5, R2);
          Chkeq (R5, rx_buf);
          Label "rxloop";
          Jz (R3, "rxdone");
          Chklt (R3, (buf_size / 4) + 2);
          Chklt (R5, rx_buf + buf_size);
          In (R6, p r_data);
          Store (R5, 0, R6);
          Addi (R5, 4);
          Addi (R3, -1);
          Jmp "rxloop";
          Label "rxdone";
          Chkeq (R3, 0);
          Chklt (R5, rx_buf + buf_size + 4);
          Movi (R4, 1);
          Out (p r_rxdone, R4);
          Movi (R4, 1);
          Out (p r_isr, R4);
          Label "empty";
          Mov (R0, R1);
          Ret;
        ] );
      ("isr", [ In (R0, p r_isr); Chklt (R0, 16); Ret ]);
      ("txack", [ Movi (R4, isr_tx); Out (p r_isr, R4); Movi (R0, 0); Ret ]);
    ]

let image ~base = Image.assemble ~origin:image_origin (code ~base)

let image_info ~base =
  let img = image ~base in
  (Image.origin img, Image.insn_count img)

let parse_args () =
  match Api.args () with
  | [ base; irq ] -> (int_of_string base, int_of_string irq)
  | _ -> Api.panic "dp8390: expected args [base; irq]"

let program () =
  let base, irq = parse_args () in
  let programs = Image.load (image ~base) in
  (* Resolve every program once; [exec] then costs no lookup. *)
  let handle name = (name, Image.find programs name) in
  let p_tx = handle "tx"
  and p_rx = handle "rx"
  and p_reset = handle "reset"
  and p_cmdstat = handle "cmdstat"
  and p_setup = handle "setup"
  and p_isr = handle "isr"
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
        Api.panic (Printf.sprintf "dp8390: consistency check failed in %s: %s" name detail)
    | exception Interp.Io_failed { port } ->
        Api.panic (Printf.sprintf "dp8390: unexpected I/O failure on port %d in %s" port name)
  in
  (match Api.irq_register irq with
  | Ok () -> ()
  | Error _ -> Api.panic "dp8390: cannot register IRQ");
  let mem = Api.memory () in
  let inet = ref None in
  let rx_slot = ref None in
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
        | Error _ -> rx_slot := None)
    | (Some _ | None), _ -> ()
  in
  let start_tx ~src ~grant ~len =
    match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:tx_buf ~len with
    | Error _ -> ()
    | Ok () ->
        tx_busy := true;
        ignore (exec p_tx ~r1:len ~r2:tx_buf ~r3:0)
  in
  let pump_rx () =
    (* Drain every frame the device has buffered. *)
    let continue = ref true in
    while !continue do
      match exec p_rx ~r1:0 ~r2:rx_buf ~r3:0 with
      | Ok 0 | Error _ -> continue := false
      | Ok len ->
          let len = min len max_frame in
          let frame = Memory.read mem ~addr:rx_buf ~len in
          if Queue.length stash < stash_cap then Queue.push frame stash;
          deliver_rx ()
    done
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
                  match exec p_setup ~r1:0 ~r2:0 ~r3:promisc with
                  | Ok _ -> Ok (regs.(5) lor (regs.(6) lsl 32))
                  | Error e -> Error e)));
      nh_writev =
        (fun ~src ~grant ~len ->
          if len <= 0 || len > max_frame then Api.panic "dp8390: bogus frame length"
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
              if bits land isr_err <> 0 then Api.panic "dp8390: device reported an error";
              if bits land isr_rx <> 0 then pump_rx ();
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
