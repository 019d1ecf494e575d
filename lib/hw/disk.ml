module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel

let ports = 7
let isr_done = 0x1
let isr_err = 0x8
let reset_us = 600_000

type t = {
  kernel : Resilix_kernel.Kernel.t;
  irq : int;
  store : Blockstore.t;
  rate : int;
  seek_us : int;
  mutable lba : int;
  mutable count : int;
  mutable dmah : int;
  mutable busy : bool;
  mutable isr : int;
  mutable ready_at : int; (* device unavailable until then after a reset *)
}

let engine t = Kernel.engine t.kernel
let raise_irq t = Kernel.raise_irq t.kernel t.irq
let fail t = t.isr <- t.isr lor isr_err

(* Resets take real time on disks (spin-up, IDENTIFY): the restarted
   driver polls STATUS until the controller is ready again.  This is
   the dominant part of the paper's per-crash dead time. *)
let do_reset t =
  t.lba <- 0;
  t.count <- 0;
  t.dmah <- 0;
  t.busy <- false;
  t.isr <- 0;
  t.ready_at <- Engine.now (engine t) + reset_us

let sector_size t = Blockstore.sector_size t.store

let resetting t = Engine.now (engine t) < t.ready_at

let valid_range t = t.count >= 1 && t.count <= 256 && t.lba >= 0 && t.lba + t.count <= Blockstore.sectors t.store

(* A command latches LBA, COUNT and the DMA handle when it starts: a
   register write while the transfer is in flight moves nothing. *)
let start_read t =
  if t.busy || resetting t || not (valid_range t) then fail t
  else begin
    t.busy <- true;
    let lba = t.lba and count = t.count and dmah = t.dmah in
    let duration = t.seek_us + (count * sector_size t / t.rate) in
    ignore
      (Engine.schedule (engine t) ~after:duration (fun () ->
           t.busy <- false;
           let size = sector_size t in
           (* The sector count comes from the length the kernel checked
              against the grant, so the fill writes no byte past it. *)
           let fill buf pos len = Blockstore.read_into t.store ~lba ~count:(len / size) buf pos in
           match Kernel.dma t.kernel ~handle:dmah ~off:0 ~op:(`Fill (count * size, fill)) with
           | Ok _ ->
               t.isr <- t.isr lor isr_done;
               raise_irq t
           | Error _ ->
               (* The driver died mid-transfer and its mapping is
                  gone: surface an error interrupt. *)
               fail t;
               raise_irq t))
  end

let start_write t =
  if t.busy || resetting t || not (valid_range t) then fail t
  else begin
    match Kernel.dma t.kernel ~handle:t.dmah ~off:0 ~op:(`Read (t.count * sector_size t)) with
    | Error _ -> fail t
    | Ok data ->
        t.busy <- true;
        let lba = t.lba in
        let duration = t.seek_us + (t.count * sector_size t / t.rate) in
        ignore
          (Engine.schedule (engine t) ~after:duration (fun () ->
               t.busy <- false;
               Blockstore.write t.store ~lba data;
               t.isr <- t.isr lor isr_done;
               raise_irq t))
  end

let read t = function
  | 0 -> 0x5A7A
  | 5 -> (if t.busy || resetting t then 1 else 0) lor if t.isr land isr_err <> 0 then 8 else 0
  | 6 -> t.isr
  | _ -> 0xFFFF_FFFF

let write t reg v =
  match (reg, v) with
  | 1, v -> t.lba <- v
  | 2, v -> t.count <- v
  | 3, v -> t.dmah <- v
  | 4, 0x20 -> start_read t
  | 4, 0x30 -> start_write t
  | 4, 0xE7 -> () (* flush: the store is always durable *)
  | 4, 0x10 -> do_reset t
  | 6, v -> t.isr <- t.isr land lnot v
  | _ -> fail t

let create ~kernel ~bus ~base ~irq ~store ?(rate_bytes_per_us = 40) ?(seek_us = 100) () =
  let t =
    {
      kernel;
      irq;
      store;
      rate = rate_bytes_per_us;
      seek_us;
      lba = 0;
      count = 0;
      dmah = 0;
      busy = false;
      isr = 0;
      ready_at = 0;
    }
  in
  Bus.register bus ~base ~len:ports ~read:(read t) ~write:(write t);
  t
