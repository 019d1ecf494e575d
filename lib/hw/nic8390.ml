let ports = 10

(* The PIO data path: the TX staging buffer and the word cursor into
   the head RX frame. *)
type t = { staging : Buffer.t; mutable read_pos : int }

let queued t nic =
  if Queue.length (Nic.rx_queue nic) = 1 then begin
    t.read_pos <- 0;
    Nic.signal_rx nic
  end

let data_write t nic v =
  if Buffer.length t.staging + 4 > Nic.max_frame then Nic.fail nic
  else begin
    Buffer.add_char t.staging (Char.chr (v land 0xFF));
    Buffer.add_char t.staging (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char t.staging (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char t.staging (Char.chr ((v lsr 24) land 0xFF))
  end

let data_read t nic =
  match Queue.peek_opt (Nic.rx_queue nic) with
  | None -> 0xFFFF_FFFF
  | Some frame ->
      let len = Bytes.length frame in
      let byte i = if i < len then Char.code (Bytes.get frame i) else 0 in
      let off = t.read_pos in
      t.read_pos <- off + 4;
      byte off lor (byte (off + 1) lsl 8) lor (byte (off + 2) lsl 16) lor (byte (off + 3) lsl 24)

let tx_go t nic len =
  if len > Buffer.length t.staging || not (Nic.tx_ready nic len) then Nic.fail nic
  else begin
    let frame = Bytes.of_string (Buffer.sub t.staging 0 len) in
    Buffer.clear t.staging;
    Nic.transmit nic frame
  end

let rx_done t nic =
  let queue = Nic.rx_queue nic in
  if not (Queue.is_empty queue) then ignore (Queue.pop queue);
  t.read_pos <- 0;
  if not (Queue.is_empty queue) then Nic.signal_rx nic

let read t nic = function
  | 4 -> data_read t nic
  | 6 -> ( match Queue.peek_opt (Nic.rx_queue nic) with Some f -> Bytes.length f | None -> 0)
  | _ -> 0xFFFF_FFFF

let write t nic reg v =
  match reg with
  | 4 -> data_write t nic v
  | 5 -> tx_go t nic v
  | 7 -> rx_done t nic
  | _ -> Nic.fail nic

let reset t () =
  Buffer.clear t.staging;
  t.read_pos <- 0

let create ~kernel ~bus ~base ~irq ~link ~side ~mac ~rng ?wedge_prob () =
  let t = { staging = Buffer.create Nic.max_frame; read_pos = 0 } in
  Nic.create ~kernel ~bus ~base ~ports ~irq ~link ~side ~mac ~rng ?wedge_prob
    {
      id = 0x8390;
      mac_reg = 8;
      read = read t;
      write = write t;
      reset = reset t;
      queued = queued t;
      rx_ready = (fun _ -> ());
    }
