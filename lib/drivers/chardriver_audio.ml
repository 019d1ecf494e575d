module Api = Resilix_kernel.Sysif.Api
module Memory = Resilix_kernel.Memory
module Errno = Resilix_proto.Errno
module Isa = Resilix_vm.Isa

let image_origin = 0x1000
let stage_buf = 0x4000
let stage_size = 65536
let memory_kb = 128
let fifo_cap = 16_384
let spool_cap = 262_144

let r_id = 0
let r_ctrl = 1
let r_data = 2
let r_level = 3
let r_isr = 4

let code ~base =
  let p i = base + i in
  Isa.
    [
      ("init", [ In (R0, p r_id); Chkeq (R0, 0xAD10); Movi (R4, 0x10); Out (p r_ctrl, R4); Movi (R0, 0); Ret ]);
      ("ctrl", [ Out (p r_ctrl, R1); Movi (R0, 0); Ret ]);
      ("level", [ In (R0, p r_level); Chklt (R0, fifo_cap + 1); Ret ]);
      (* feed: r1 = source address, r2 = word count. *)
      ( "feed",
        [
          Chklt (R2, (stage_size / 4) + 1);
          Mov (R5, R1);
          Label "loop";
          Jz (R2, "done");
          Load (R6, R5, 0);
          Out (p r_data, R6);
          Addi (R5, 4);
          Addi (R2, -1);
          Jmp "loop";
          Label "done";
          Movi (R0, 0);
          Ret;
        ] );
      ("ack", [ In (R0, p r_isr); Out (p r_isr, R0); Ret ]);
    ]

let image ~base = Image.assemble ~origin:image_origin (code ~base)

let program () =
  let vm = Image.boot ~driver:"audio" image in
  let p_init = Image.program vm "init"
  and p_level = Image.program vm "level"
  and p_feed = Image.program vm "feed"
  and p_ctrl = Image.program vm "ctrl"
  and p_ack = Image.program vm "ack" in
  ignore (Image.exec vm p_init);
  let mem = Api.memory () in
  let spool = Queue.create () in
  let spooled = ref 0 in
  let playing = ref false in
  (* Push spooled sample chunks into the codec FIFO while it has room. *)
  let pump () =
    let continue = ref true in
    while !continue && not (Queue.is_empty spool) do
      let level = Image.exec vm p_level in
      let room = fifo_cap - level in
      if room < 4 then continue := false
      else begin
        let chunk = Queue.peek spool in
        let take = min (Bytes.length chunk) (room land lnot 3) in
        if take = 0 then continue := false
        else begin
          Memory.blit_in mem ~addr:stage_buf ~src:chunk ~src_off:0 ~len:take;
          ignore (Image.exec vm p_feed ~r1:stage_buf ~r2:((take + 3) / 4));
          spooled := !spooled - take;
          if take = Bytes.length chunk then ignore (Queue.pop spool)
          else begin
            ignore (Queue.pop spool);
            let rest = Bytes.sub chunk take (Bytes.length chunk - take) in
            (* Preserve ordering: re-queue the remainder at the front
               by rebuilding (queues are short). *)
            let others = List.of_seq (Queue.to_seq spool) in
            Queue.clear spool;
            Queue.push rest spool;
            List.iter (fun c -> Queue.push c spool) others
          end
        end
      end
    done
  in
  let handlers =
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_write =
        (fun ~src ~minor ~pos:_ ~grant ~len ->
          if minor <> 0 then Driver_lib.Reply (Error Errno.E_nodev)
          else if len <= 0 || len > stage_size then Driver_lib.Reply (Error Errno.E_inval)
          else if !spooled + len > spool_cap then Driver_lib.Reply (Error Errno.E_again)
          else begin
            match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:stage_buf ~len with
            | Error e -> Driver_lib.Reply (Error e)
            | Ok () ->
                Queue.push (Memory.read mem ~addr:stage_buf ~len) spool;
                spooled := !spooled + len;
                if not !playing then begin
                  playing := true;
                  ignore (Image.exec vm p_ctrl ~r1:1)
                end;
                pump ();
                Driver_lib.Reply (Ok len)
          end);
      dh_ioctl =
        (fun ~src:_ ~minor:_ ~op ~arg:_ ->
          match op with
          | "start" ->
              playing := true;
              ignore (Image.exec vm p_ctrl ~r1:1);
              Driver_lib.Reply (Ok 0)
          | "stop" ->
              playing := false;
              ignore (Image.exec vm p_ctrl);
              Driver_lib.Reply (Ok 0)
          | _ -> Driver_lib.Reply (Error Errno.E_inval));
      dh_irq =
        (fun ~line:_ ->
          ignore (Image.exec vm p_ack);
          pump ());
    }
  in
  Driver_lib.run_dev handlers
