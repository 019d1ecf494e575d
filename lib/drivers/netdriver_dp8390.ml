module Api = Resilix_kernel.Sysif.Api
module Memory = Resilix_kernel.Memory
module Isa = Resilix_vm.Isa

let image_origin = 0x1000
let memory_kb = 32
let tx_buf = Driver_lib.nic_tx_buf
let rx_buf = Driver_lib.nic_rx_buf
let buf_size = Driver_lib.nic_buf_size
let max_frame = Driver_lib.max_frame

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
let isr_tx = 0x4

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

let image_info ~base = Image.info (image ~base)

let program () =
  let vm = Image.boot ~driver:"dp8390" image in
  let p_rx = Image.program vm "rx" in
  let mem = Api.memory () in
  (* Up to 32 frames drained while INET has no receive posted.  A
     posted receive means the stash is empty, so a frame drained then
     goes to INET straight from [rx_buf]. *)
  let stash = Queue.create () in
  let rec rx event deliver =
    match event with
    | `Irq -> (
        (* Drain every frame the device has buffered. *)
        match Image.exec vm p_rx ~r2:rx_buf with
        | 0 -> ()
        | len ->
            let len = min len max_frame in
            if (not (deliver (fun () -> len))) && Queue.length stash < 32 then
              Queue.push (Memory.read mem ~addr:rx_buf ~len) stash;
            rx `Irq deliver)
    | `Posted when not (Queue.is_empty stash) ->
        let frame = Queue.pop stash in
        Memory.blit_in mem ~addr:rx_buf ~src:frame ~src_off:0 ~len:(Bytes.length frame);
        ignore (deliver (fun () -> Bytes.length frame))
    | `Posted | `Reset -> ()
  in
  Driver_lib.run_nic vm ~tx_r2:tx_buf ~setup_r1:0 ~setup_r2:0 ~rx
