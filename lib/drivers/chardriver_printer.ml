module Api = Resilix_kernel.Sysif.Api
module Memory = Resilix_kernel.Memory
module Errno = Resilix_proto.Errno
module Isa = Resilix_vm.Isa

let image_origin = 0x1000
let stage_buf = 0x4000
let stage_size = 65536
let memory_kb = 128
let fifo_cap = 4096

let r_id = 0
let r_ctrl = 1
let r_data = 2
let r_isr = 4
let r_level = 5

let code ~base =
  let p i = base + i in
  Isa.
    [
      ( "init",
        [
          In (R0, p r_id);
          Chkeq (R0, 0x9817);
          Movi (R4, 0x10);
          Out (p r_ctrl, R4);
          Movi (R4, 0x1);
          Out (p r_ctrl, R4);
          Movi (R0, 0);
          Ret;
        ] );
      ("level", [ In (R0, p r_level); Chklt (R0, fifo_cap + 1); Ret ]);
      (* feed: r1 = source address, r2 = byte count. *)
      ( "feed",
        [
          Chklt (R2, stage_size + 1);
          Mov (R5, R1);
          Label "loop";
          Jz (R2, "done");
          Loadb (R6, R5, 0);
          Out (p r_data, R6);
          Addi (R5, 1);
          Addi (R2, -1);
          Jmp "loop";
          Label "done";
          Movi (R0, 0);
          Ret;
        ] );
      ("ack", [ In (R0, p r_isr); Out (p r_isr, R0); Ret ]);
    ]

let image ~base = Image.assemble ~origin:image_origin (code ~base)

type job = { src : Resilix_proto.Endpoint.t; data : bytes; mutable off : int }

let program () =
  let vm = Image.boot ~driver:"printer" image in
  let p_init = Image.program vm "init"
  and p_level = Image.program vm "level"
  and p_feed = Image.program vm "feed"
  and p_ack = Image.program vm "ack" in
  ignore (Image.exec vm p_init);
  let mem = Api.memory () in
  let current = ref None in
  (* Feed as much of the current job as the FIFO can take; reply when
     the whole request has been handed to the hardware. *)
  let pump () =
    match !current with
    | None -> ()
    | Some job ->
        let level = Image.exec vm p_level in
        let room = fifo_cap - level in
        let remaining = Bytes.length job.data - job.off in
        let take = min room remaining in
        if take > 0 then begin
          Memory.blit_in mem ~addr:stage_buf ~src:job.data ~src_off:job.off ~len:take;
          ignore (Image.exec vm p_feed ~r1:stage_buf ~r2:take);
          job.off <- job.off + take
        end;
        if job.off >= Bytes.length job.data then begin
          current := None;
          Driver_lib.reply job.src (Ok (Bytes.length job.data))
        end
  in
  let handlers =
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_write =
        (fun ~src ~minor ~pos:_ ~grant ~len ->
          if minor <> 0 then Driver_lib.Reply (Error Errno.E_nodev)
          else if len <= 0 || len > stage_size then Driver_lib.Reply (Error Errno.E_inval)
          else if !current <> None then Driver_lib.Reply (Error Errno.E_busy)
          else begin
            match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:stage_buf ~len with
            | Error e -> Driver_lib.Reply (Error e)
            | Ok () ->
                current := Some { src; data = Memory.read mem ~addr:stage_buf ~len; off = 0 };
                pump ();
                Driver_lib.No_reply
          end);
      dh_irq =
        (fun ~line:_ ->
          ignore (Image.exec vm p_ack);
          pump ());
    }
  in
  Driver_lib.run_dev handlers
