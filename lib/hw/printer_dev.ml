module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel

let ports = 6
let isr_drained = 0x1
let isr_err = 0x8
let tick = 10_000 (* us *)
let fifo_cap = 4096
let bytes_per_tick = 50_000 * tick / 1_000_000

type t = {
  kernel : Resilix_kernel.Kernel.t;
  irq : int;
  mutable online : bool;
  fifo : char Queue.t;
  output : Buffer.t;
  mutable isr : int;
}

let printed t = Buffer.contents t.output
let fail t = t.isr <- t.isr lor isr_err

let rec run t =
  ignore
    (Engine.schedule (Kernel.engine t.kernel) ~after:tick (fun () ->
         if t.online then begin
           let had_work = not (Queue.is_empty t.fifo) in
           let printed = ref 0 in
           while !printed < bytes_per_tick && not (Queue.is_empty t.fifo) do
             Buffer.add_char t.output (Queue.pop t.fifo);
             incr printed
           done;
           if had_work && Queue.is_empty t.fifo then begin
             t.isr <- t.isr lor isr_drained;
             Kernel.raise_irq t.kernel t.irq
           end
         end;
         run t))

let read t = function
  | 0 -> 0x9817
  | 1 -> if t.online then 1 else 0
  | 3 -> if Queue.length t.fifo < fifo_cap then 1 else 0
  | 4 -> t.isr
  | 5 -> Queue.length t.fifo
  | _ -> 0xFFFF_FFFF

let write t reg v =
  match reg with
  | 1 ->
      if v land 0x10 <> 0 then begin
        t.online <- false;
        Queue.clear t.fifo;
        t.isr <- 0
      end
      else if v land lnot 0x11 <> 0 then fail t
      else t.online <- v land 1 <> 0
  | 2 -> if Queue.length t.fifo >= fifo_cap then fail t else Queue.push (Char.chr (v land 0xFF)) t.fifo
  | 4 -> t.isr <- t.isr land lnot v
  | _ -> fail t

let create ~kernel ~bus ~base ~irq () =
  let t =
    { kernel; irq; online = false; fifo = Queue.create (); output = Buffer.create 4096; isr = 0 }
  in
  Bus.register bus ~base ~len:ports ~read:(read t) ~write:(write t);
  run t;
  t
