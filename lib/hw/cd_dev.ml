module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel

let ports = 7
let isr_done = 0x1
let isr_err = 0x8
let burn_bytes_per_us = 8

type disc_state = Blank | In_session | Complete | Ruined

type t = {
  kernel : Resilix_kernel.Kernel.t;
  irq : int;
  gap_timeout : int;
  mutable disc : disc_state;
  mutable busy : bool;
  mutable dmah : int;
  mutable len : int;
  mutable isr : int;
  mutable gap_watch : Engine.handle option;
  data : Buffer.t;
}

let disc t = t.disc
let burned t = Buffer.contents t.data
let engine t = Kernel.engine t.kernel
let fail t = t.isr <- t.isr lor isr_err

(* The buffer-underrun watchdog: if the session stays open with no
   block completed for gap_timeout, the disc is toast. *)
let arm_gap_watch t =
  (match t.gap_watch with Some h -> Engine.cancel h | None -> ());
  t.gap_watch <-
    Some
      (Engine.schedule (engine t) ~after:t.gap_timeout (fun () ->
           t.gap_watch <- None;
           if t.disc = In_session then begin
             t.disc <- Ruined;
             t.isr <- t.isr lor isr_err;
             Kernel.raise_irq t.kernel t.irq
           end))

let start_session t =
  match t.disc with
  | Blank ->
      t.disc <- In_session;
      arm_gap_watch t
  | In_session | Complete | Ruined -> fail t

let finish_session t =
  match t.disc with
  | In_session ->
      (match t.gap_watch with Some h -> Engine.cancel h | None -> ());
      t.gap_watch <- None;
      t.disc <- Complete
  | Blank | Complete | Ruined -> fail t

let burn_block t =
  if t.disc <> In_session || t.busy || t.len <= 0 || t.len > 65536 then fail t
  else begin
    match Kernel.dma t.kernel ~handle:t.dmah ~off:0 ~op:(`Read t.len) with
    | Error _ -> fail t
    | Ok block ->
        t.busy <- true;
        let duration = max 1 (t.len / burn_bytes_per_us) in
        ignore
          (Engine.schedule (engine t) ~after:duration (fun () ->
               t.busy <- false;
               if t.disc = In_session then begin
                 Buffer.add_bytes t.data block;
                 arm_gap_watch t;
                 t.isr <- t.isr lor isr_done;
                 Kernel.raise_irq t.kernel t.irq
               end))
  end

let read t = function
  | 0 -> 0xCDB0
  | 5 ->
      (if t.disc = In_session then 1 else 0)
      lor (if t.busy then 2 else 0)
      lor if t.isr land isr_err <> 0 then 8 else 0
  | 6 -> t.isr
  | _ -> 0xFFFF_FFFF

let write t reg v =
  match (reg, v) with
  | 1, 0x01 -> start_session t
  | 1, 0x02 -> finish_session t
  | 1, 0x10 ->
      (* Reset stops the laser; an open session is ruined when the
         gap watchdog fires. *)
      t.busy <- false;
      t.isr <- 0
  | 2, v -> t.dmah <- v
  | 3, v -> t.len <- v
  | 4, _ -> burn_block t
  | 6, v -> t.isr <- t.isr land lnot v
  | _ -> fail t

let create ~kernel ~bus ~base ~irq ?(gap_timeout = 300_000) () =
  let t =
    {
      kernel;
      irq;
      gap_timeout;
      disc = Blank;
      busy = false;
      dmah = 0;
      len = 0;
      isr = 0;
      gap_watch = None;
      data = Buffer.create 65536;
    }
  in
  Bus.register bus ~base ~len:ports ~read:(read t) ~write:(write t);
  t
