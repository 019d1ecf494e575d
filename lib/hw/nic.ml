module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Metrics = Resilix_obs.Metrics

let isr_rx_ok = 0x1
let isr_tx_ok = 0x4
let isr_err = 0x8
let cmd_reset = 0x10
let cmd_rx_enable = 0x04
let cmd_tx_enable = 0x08
let max_frame = 2048
let rx_queue_cap = 64
let reset_us = 150_000
let tx_bytes_per_us = 12
let broadcast_mac = 0xFFFF_FFFF_FFFF

type t = {
  kernel : Kernel.t;
  link : Link.t;
  side : Link.side;
  irq : int;
  mac : int;
  rng : Rng.t;
  wedge_prob : float;
  dev : device;
  mutable wedged : bool;
  mutable ready_at : int; (* controller unavailable until then after a reset *)
  mutable rx_enabled : bool;
  mutable tx_enabled : bool;
  mutable promisc : bool;
  mutable isr : int;
  mutable tx_busy : bool;
  rx_queue : bytes Queue.t;
  rx_overflow : Metrics.counter;
}

and device = {
  id : int;
  mac_reg : int;
  read : t -> int -> int;
  write : t -> int -> int -> unit;
  reset : unit -> unit;
  queued : t -> unit;
  rx_ready : t -> unit;
}

let kernel t = t.kernel
let rx_queue t = t.rx_queue
let wedged t = t.wedged
let resetting t = Engine.now (Kernel.engine t.kernel) < t.ready_at
let rx_open t = (not t.wedged) && (not (resetting t)) && t.rx_enabled
let rx_signalled t = t.isr land isr_rx_ok <> 0

(* Set an ISR bit, then interrupt. *)
let signal t bit =
  t.isr <- t.isr lor bit;
  Kernel.raise_irq t.kernel t.irq

let signal_rx t = signal t isr_rx_ok

let fail t =
  t.isr <- t.isr lor isr_err;
  if Rng.bool t.rng t.wedge_prob then t.wedged <- true

let reset t =
  t.ready_at <- Engine.now (Kernel.engine t.kernel) + reset_us;
  t.rx_enabled <- false;
  t.tx_enabled <- false;
  t.promisc <- false;
  t.isr <- 0;
  t.tx_busy <- false;
  Queue.clear t.rx_queue;
  t.dev.reset ()

let bios_reset t =
  t.wedged <- false;
  reset t

let tx_ready t len =
  (not (resetting t)) && t.tx_enabled && (not t.tx_busy) && len > 0 && len <= max_frame

let transmit t frame =
  t.tx_busy <- true;
  let tx_time = max 1 (Bytes.length frame / tx_bytes_per_us) in
  ignore
    (Engine.schedule (Kernel.engine t.kernel) ~after:tx_time (fun () ->
         t.tx_busy <- false;
         if not t.wedged then begin
           Link.send t.link t.side frame;
           signal t isr_tx_ok
         end))

(* MAC filtering: accept broadcast, our MAC, or anything in
   promiscuous mode.  The first six bytes of a frame are the
   destination MAC, big-endian.  A full queue drops the frame, like
   real hardware, and counts it. *)
let dst_mac_of frame =
  if Bytes.length frame < 6 then 0
  else
    let b i = Char.code (Bytes.get frame i) in
    (b 0 lsl 40) lor (b 1 lsl 32) lor (b 2 lsl 24) lor (b 3 lsl 16) lor (b 4 lsl 8) lor b 5

let on_link_rx t frame =
  if rx_open t then begin
    let dst = dst_mac_of frame in
    if t.promisc || dst = t.mac || dst = broadcast_mac then
      if Queue.length t.rx_queue < rx_queue_cap then begin
        Queue.push frame t.rx_queue;
        t.dev.queued t
      end
      else Metrics.incr t.rx_overflow
  end

let read t reg =
  match reg with
  | 0 -> t.dev.id
  | 1 ->
      if resetting t then cmd_reset
      else (if t.rx_enabled then cmd_rx_enable else 0) lor if t.tx_enabled then cmd_tx_enable else 0
  | 2 -> if t.promisc then 1 else 0
  | 3 -> t.isr
  | r when r = t.dev.mac_reg -> t.mac land 0xFFFF_FFFF
  | r when r = t.dev.mac_reg + 1 -> (t.mac lsr 32) land 0xFFFF
  | r -> t.dev.read t r

let write t reg v =
  match reg with
  | 1 ->
      if v land cmd_reset <> 0 then reset t
      else if resetting t then () (* programming a resetting chip is ignored *)
      else if v land lnot (cmd_reset lor cmd_rx_enable lor cmd_tx_enable) <> 0 then fail t
      else begin
        t.rx_enabled <- v land cmd_rx_enable <> 0;
        t.tx_enabled <- v land cmd_tx_enable <> 0;
        t.dev.rx_ready t
      end
  | 2 -> t.promisc <- v land 1 <> 0
  | 3 ->
      let had_rx = rx_signalled t in
      t.isr <- t.isr land lnot v;
      if had_rx && v land isr_rx_ok <> 0 then t.dev.rx_ready t
  | r -> t.dev.write t r v

(* A wedged card floats: all-ones on every read, writes ignored. *)
let claim t bus ~base ~ports =
  Bus.register bus ~base ~len:ports
    ~read:(fun reg -> if t.wedged then 0xFFFF_FFFF else read t reg)
    ~write:(fun reg v -> if not t.wedged then write t reg v)

let create ~kernel ~bus ~base ~ports ~irq ~link ~side ~mac ~rng ?(wedge_prob = 0.0) dev =
  let t =
    {
      kernel;
      link;
      side;
      irq;
      mac;
      rng;
      wedge_prob;
      dev;
      wedged = false;
      ready_at = 0;
      rx_enabled = false;
      tx_enabled = false;
      promisc = false;
      isr = 0;
      tx_busy = false;
      rx_queue = Queue.create ();
      rx_overflow = Metrics.counter (Kernel.metrics kernel) (Printf.sprintf "hw.nic%x.rx_overflow" dev.id);
    }
  in
  claim t bus ~base ~ports;
  Link.attach link side (on_link_rx t);
  t
