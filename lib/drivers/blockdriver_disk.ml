module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno
module Isa = Resilix_vm.Isa

let image_origin = 0x1000
let data_buf = 0x10000
let max_request = 65536
let memory_kb = 192
let sector = 512

let r_id = 0
let r_lba = 1
let r_count = 2
let r_dmah = 3
let r_cmd = 4
let r_isr = 6

let isr_done = 0x1
let isr_err = 0x8

let code ~base =
  let p i = base + i in
  Isa.
    [
      ("init", [ In (R0, p r_id); Chkeq (R0, 0x5A7A); Movi (R4, 0x10); Out (p r_cmd, R4); Movi (R0, 0); Ret ]);
      ("status", [ In (R0, p 5); Chklt (R0, 16); Ret ]);
      (* io: r1 = lba, r2 = sector count, r3 = dma handle, r4 = command
         (0x20 read / 0x30 write). *)
      ( "io",
        [
          Chknz R2;
          Chklt (R2, 129);
          Out (p r_lba, R1);
          Out (p r_count, R2);
          Out (p r_dmah, R3);
          Out (p r_cmd, R4);
          Movi (R0, 0);
          Ret;
        ] );
      (* isr: read and ack the interrupt bits; bits returned in r0. *)
      ("isr", [ In (R0, p r_isr); Chklt (R0, 16); Movi (R5, 0x9); Out (p r_isr, R5); Ret ]);
    ]

let image ~base = Image.assemble ~origin:image_origin (code ~base)

let image_info ~base = Image.info (image ~base)

type inflight = { src : Resilix_proto.Endpoint.t; grant : int; len : int; write : bool }

let program () =
  let vm = Image.boot ~driver:"disk" image in
  let p_init = Image.program vm "init"
  and p_status = Image.program vm "status"
  and p_io = Image.program vm "io"
  and p_isr = Image.program vm "isr" in
  let h_data = Image.dma_buffer vm ~addr:data_buf ~len:max_request in
  ignore (Image.exec vm p_init);
  (* Disks take a long time to come back after a reset (spin-up +
     IDENTIFY); poll the status register like a real driver. *)
  Image.wait_ready vm p_status ~busy:1;
  let inflight = ref None in
  let start ~src ~grant ~pos ~len ~write =
    if pos < 0 || len <= 0 || len > max_request || pos mod sector <> 0 || len mod sector <> 0 then
      Driver_lib.Reply (Error Errno.E_inval)
    else if !inflight <> None then Driver_lib.Reply (Error Errno.E_busy)
    else begin
      let proceed () =
        inflight := Some { src; grant; len; write };
        let cmd = if write then 0x30 else 0x20 in
        ignore (Image.exec vm p_io ~r1:(pos / sector) ~r2:(len / sector) ~r3:h_data ~r4:cmd);
        Driver_lib.No_reply
      in
      if write then begin
        match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:data_buf ~len with
        | Ok () -> proceed ()
        | Error e -> Driver_lib.Reply (Error e)
      end
      else proceed ()
    end
  in
  let handlers =
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_read =
        (fun ~src ~minor ~pos ~grant ~len ->
          if minor <> 0 then Driver_lib.Reply (Error Errno.E_nodev)
          else start ~src ~grant ~pos ~len ~write:false);
      dh_write =
        (fun ~src ~minor ~pos ~grant ~len ->
          if minor <> 0 then Driver_lib.Reply (Error Errno.E_nodev)
          else start ~src ~grant ~pos ~len ~write:true);
      dh_irq =
        (fun ~line:_ ->
          let bits = Image.exec vm p_isr in
          match !inflight with
          | None -> ()
          | Some { src; grant; len; write } ->
              inflight := None;
              if bits land isr_err <> 0 then Image.fail vm "device reported an error"
              else if bits land isr_done <> 0 then
                if write then Driver_lib.reply src (Ok len)
                else begin
                  match
                    Api.safecopy_to ~owner:src ~grant ~grant_off:0 ~local_addr:data_buf ~len
                  with
                  | Ok () -> Driver_lib.reply src (Ok len)
                  | Error _ -> () (* requester died; the FS will retry *)
                end);
    }
  in
  Driver_lib.run_dev handlers
