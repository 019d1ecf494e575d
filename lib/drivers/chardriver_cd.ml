module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno
module Isa = Resilix_vm.Isa

let image_origin = 0x1000
let data_buf = 0x10000
let max_block = 65536
let memory_kb = 192

let r_id = 0
let r_cmd = 1
let r_dmah = 2
let r_len = 3
let r_go = 4
let r_isr = 6

let isr_done = 0x1
let isr_err = 0x8

let code ~base =
  let p i = base + i in
  Isa.
    [
      ("init", [ In (R0, p r_id); Chkeq (R0, 0xCDB0); Movi (R4, 0x10); Out (p r_cmd, R4); Movi (R0, 0); Ret ]);
      ("cmd", [ Out (p r_cmd, R1); Movi (R0, 0); Ret ]);
      (* burn: r1 = block length, r2 = dma handle. *)
      ( "burn",
        [
          Chknz R1;
          Chklt (R1, max_block + 1);
          Out (p r_dmah, R2);
          Out (p r_len, R1);
          Movi (R4, 1);
          Out (p r_go, R4);
          Movi (R0, 0);
          Ret;
        ] );
      ("isr", [ In (R0, p r_isr); Chklt (R0, 16); Movi (R5, 0x9); Out (p r_isr, R5); Ret ]);
    ]

let image ~base = Image.assemble ~origin:image_origin (code ~base)

let program () =
  let vm = Image.boot ~driver:"cd" image in
  let p_init = Image.program vm "init"
  and p_cmd = Image.program vm "cmd"
  and p_burn = Image.program vm "burn"
  and p_isr = Image.program vm "isr" in
  ignore (Image.exec vm p_init);
  let h_data = Image.dma_buffer vm ~addr:data_buf ~len:max_block in
  let inflight = ref None in
  let handlers =
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_ioctl =
        (fun ~src:_ ~minor:_ ~op ~arg:_ ->
          match op with
          | "burn_start" ->
              ignore (Image.exec vm p_cmd ~r1:0x01);
              Driver_lib.Reply (Ok 0)
          | "burn_finish" ->
              ignore (Image.exec vm p_cmd ~r1:0x02);
              Driver_lib.Reply (Ok 0)
          | _ -> Driver_lib.Reply (Error Errno.E_inval));
      dh_write =
        (fun ~src ~minor ~pos:_ ~grant ~len ->
          if minor <> 0 then Driver_lib.Reply (Error Errno.E_nodev)
          else if len <= 0 || len > max_block then Driver_lib.Reply (Error Errno.E_inval)
          else if !inflight <> None then Driver_lib.Reply (Error Errno.E_busy)
          else begin
            match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:data_buf ~len with
            | Error e -> Driver_lib.Reply (Error e)
            | Ok () ->
                inflight := Some (src, len);
                ignore (Image.exec vm p_burn ~r1:len ~r2:h_data);
                Driver_lib.No_reply
          end);
      dh_irq =
        (fun ~line:_ ->
          let bits = Image.exec vm p_isr in
          match !inflight with
          | None ->
              (* An error interrupt outside a burn (e.g. the gap
                 watchdog ruining the disc) needs no action here; the
                 next request will observe it. *)
              ()
          | Some (src, len) ->
              inflight := None;
              if bits land isr_err <> 0 then Driver_lib.reply src (Error Errno.E_io)
              else if bits land isr_done <> 0 then Driver_lib.reply src (Ok len));
    }
  in
  Driver_lib.run_dev handlers
