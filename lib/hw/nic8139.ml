module Kernel = Resilix_kernel.Kernel

let ports = 12

(* The DMA data path: the transmit buffer and the receive slot. *)
type t = {
  mutable txh : int;
  mutable txlen : int;
  mutable rxh : int;
  mutable rxcap : int;
  mutable rxlen : int;
}

(* Deliver the next queued frame into the driver's receive buffer if
   the receive path is armed and the last frame was acknowledged. *)
let pump t nic =
  let queue = Nic.rx_queue nic in
  if Nic.rx_open nic && (not (Nic.rx_signalled nic)) && t.rxh <> 0 && not (Queue.is_empty queue)
  then begin
    let frame = Queue.pop queue in
    let len = Bytes.length frame in
    if len > t.rxcap then Nic.fail nic
    else
      let copy b pos n = Bytes.blit frame 0 b pos n in
      match Kernel.dma (Nic.kernel nic) ~handle:t.rxh ~off:0 ~op:(`Fill (len, copy)) with
      | Ok _ ->
          t.rxlen <- len;
          Nic.signal_rx nic
      | Error _ -> (* stale DMA mapping (driver died): the frame is lost *) Nic.fail nic
  end

let start_tx t nic =
  if not (Nic.tx_ready nic t.txlen) then Nic.fail nic
  else
    match Kernel.dma (Nic.kernel nic) ~handle:t.txh ~off:0 ~op:(`Read t.txlen) with
    | Error _ -> Nic.fail nic
    | Ok frame -> Nic.transmit nic frame

let read t _ = function 9 -> t.rxlen | _ -> 0xFFFF_FFFF

let write t nic reg v =
  match reg with
  | 4 -> t.txh <- v
  | 5 -> t.txlen <- v
  | 6 -> start_tx t nic
  | 7 ->
      t.rxh <- v;
      pump t nic
  | 8 -> t.rxcap <- v
  | _ ->
      (* Writing a read-only or nonexistent register is exactly the
         kind of thing a corrupted driver does. *)
      Nic.fail nic

let reset t () =
  t.txh <- 0;
  t.txlen <- 0;
  t.rxh <- 0;
  t.rxcap <- 0;
  t.rxlen <- 0

let create ~kernel ~bus ~base ~irq ~link ~side ~mac ~rng ?wedge_prob () =
  let t = { txh = 0; txlen = 0; rxh = 0; rxcap = 0; rxlen = 0 } in
  Nic.create ~kernel ~bus ~base ~ports ~irq ~link ~side ~mac ~rng ?wedge_prob
    {
      id = 0x8139;
      mac_reg = 10;
      read = read t;
      write = write t;
      reset = reset t;
      queued = pump t;
      rx_ready = pump t;
    }
