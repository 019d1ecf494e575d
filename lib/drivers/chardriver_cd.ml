module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Errno = Resilix_proto.Errno
module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp

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

let image_info ~base =
  let img = image ~base in
  (Image.origin img, Image.insn_count img)

let parse_args () =
  match Api.args () with
  | [ base; irq ] -> (int_of_string base, int_of_string irq)
  | _ -> Api.panic "cd: expected args [base; irq]"

let program () =
  let base, irq = parse_args () in
  let programs = Image.load (image ~base) in
  (* Resolve every program once; [exec] then costs no lookup. *)
  let handle name = (name, Image.find programs name) in
  let p_init = handle "init"
  and p_cmd = handle "cmd"
  and p_burn = handle "burn"
  and p_isr = handle "isr" in
  let regs = Array.make 8 0 in
  let exec (name, program) ~r1 ~r2 =
    Array.fill regs 0 8 0;
    regs.(1) <- r1;
    regs.(2) <- r2;
    match Interp.run program ~regs with
    | r0 -> r0
    | exception Interp.Check_failed { detail; _ } ->
        Api.panic (Printf.sprintf "cd: consistency check failed in %s: %s" name detail)
    | exception Interp.Io_failed { port } ->
        Api.panic (Printf.sprintf "cd: unexpected I/O failure on port %d" port)
  in
  (match Api.irq_register irq with
  | Ok () -> ()
  | Error _ -> Api.panic "cd: cannot register IRQ");
  ignore (exec p_init ~r1:0 ~r2:0);
  let h_data =
    match
      Api.grant_create ~for_:Resilix_proto.Wellknown.hardware ~base:data_buf ~len:max_block
        ~access:Sysif.Read_write
    with
    | Error _ -> Api.panic "cd: grant_create failed"
    | Ok g -> (
        match Api.iommu_map g with Ok h -> h | Error _ -> Api.panic "cd: iommu_map failed")
  in
  let inflight = ref None in
  let handlers =
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_ioctl =
        (fun ~src:_ ~minor:_ ~op ~arg:_ ->
          match op with
          | "burn_start" ->
              ignore (exec p_cmd ~r1:0x01 ~r2:0);
              Driver_lib.Reply (Ok 0)
          | "burn_finish" ->
              ignore (exec p_cmd ~r1:0x02 ~r2:0);
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
                ignore (exec p_burn ~r1:len ~r2:h_data);
                Driver_lib.No_reply
          end);
      dh_irq =
        (fun ~line:_ ->
          let bits = exec p_isr ~r1:0 ~r2:0 in
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
