module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel

let ports = 6
let isr_low_water = 0x1
let isr_err = 0x8
let drain_period = 10_000 (* us *)
let fifo_cap = 16_384
let low_water = fifo_cap / 4

type t = {
  kernel : Resilix_kernel.Kernel.t;
  irq : int;
  byte_rate : int; (* bytes per second *)
  mutable playing : bool;
  mutable fifo : int; (* bytes buffered *)
  mutable isr : int;
  mutable underruns : int;
  mutable played : int;
  mutable above_low_water : bool;
}

let underruns t = t.underruns
let bytes_played t = t.played
let fail t = t.isr <- t.isr lor isr_err

(* Periodic drain: consume a period's worth of samples; count an
   underrun for each period the device was playing with an empty
   FIFO. *)
let rec drain t =
  ignore
    (Engine.schedule (Kernel.engine t.kernel) ~after:drain_period (fun () ->
         if t.playing then begin
           let want = t.byte_rate * drain_period / 1_000_000 in
           let take = min t.fifo want in
           t.fifo <- t.fifo - take;
           t.played <- t.played + take;
           if take < want then t.underruns <- t.underruns + 1;
           if t.fifo <= low_water && t.above_low_water then begin
             t.above_low_water <- false;
             t.isr <- t.isr lor isr_low_water;
             Kernel.raise_irq t.kernel t.irq
           end
         end;
         drain t))

let read t = function
  | 0 -> 0xAD10
  | 1 -> if t.playing then 1 else 0
  | 3 -> t.fifo
  | 4 -> t.isr
  | 5 -> t.underruns
  | _ -> 0xFFFF_FFFF

let write t reg v =
  match reg with
  | 1 ->
      if v land 0x10 <> 0 then begin
        t.playing <- false;
        t.fifo <- 0;
        t.isr <- 0;
        t.above_low_water <- true
      end
      else if v land lnot 0x11 <> 0 then fail t
      else t.playing <- v land 1 <> 0
  | 2 ->
      if t.fifo + 4 > fifo_cap then fail t
      else begin
        t.fifo <- t.fifo + 4;
        if t.fifo > low_water then t.above_low_water <- true
      end
  | 4 -> t.isr <- t.isr land lnot v
  | _ -> fail t

let create ~kernel ~bus ~base ~irq ?(byte_rate = 176_400) () =
  let t =
    {
      kernel;
      irq;
      byte_rate;
      playing = false;
      fifo = 0;
      isr = 0;
      underruns = 0;
      played = 0;
      above_low_water = true;
    }
  in
  Bus.register bus ~base ~len:ports ~read:(read t) ~write:(write t);
  drain t;
  t
