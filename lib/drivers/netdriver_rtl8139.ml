module Isa = Resilix_vm.Isa

let image_origin = 0x1000
let memory_kb = 32
let max_frame = Driver_lib.max_frame
let buf_size = Driver_lib.nic_buf_size

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

let image_info ~base = Image.info (image ~base)

let program () =
  let vm = Image.boot ~driver:"rtl8139" image in
  let p_rxlen = Image.program vm "rxlen" and p_rxack = Image.program vm "rxack" in
  (* DMA setup: grant the device access to the two frame buffers. *)
  let h_tx = Image.dma_buffer vm ~addr:Driver_lib.nic_tx_buf ~len:buf_size in
  let h_rx = Image.dma_buffer vm ~addr:Driver_lib.nic_rx_buf ~len:buf_size in
  (* The chip DMAs one frame into the rx buffer and holds the rest
     until that one is acknowledged, so the frame waits there,
     unacknowledged, until INET has a receive posted.  The reset in
     [Dl_conf] clears RXLEN along with the frame. *)
  let pending = ref false in
  let rx event deliver =
    pending := (match event with `Irq -> true | `Posted -> !pending | `Reset -> false);
    if !pending && deliver (fun () -> Image.exec vm p_rxlen) then begin
      ignore (Image.exec vm p_rxack);
      pending := false
    end
  in
  Driver_lib.run_nic vm ~tx_r2:h_tx ~setup_r1:h_rx ~setup_r2:buf_size ~rx
