(* Stream offsets are unwrapped OCaml ints internally; sequence
   numbers only become 32-bit (mod 2^32) at the wire boundary.  Offset
   0 is our SYN; application data starts at offset 1; FIN occupies one
   offset after the last data byte.  Same numbering for the peer. *)

type config = {
  local_port : int;
  remote_port : int;
  rx_window : int;
  tx_buffer : int;
  isn : int;
}

(* Maximum payload per segment, and the retransmission timeout's
   initial value and backoff ceiling (us). *)
let mss = Wire.max_payload
let rto_initial = 200_000
let rto_max = 8_000_000

let default_config ~local_port ~remote_port ~isn =
  {
    local_port;
    remote_port;
    rx_window = 262_144;
    tx_buffer = 262_144;
    isn;
  }

type event = Ev_established | Ev_rx_ready | Ev_tx_space | Ev_peer_closed | Ev_reset | Ev_closed

type callbacks = {
  emit : Wire.tcp_segment -> unit;
  set_timer : int option -> unit;
  notify : event -> unit;
}

type state = Listen | Syn_sent | Syn_received | Established | Done

(* A byte queue: the live bytes sit at [store.(base) .. base + len - 1].
   Consuming only advances [base].  An append that does not fit moves
   the live bytes to the front only once the consumed prefix is at
   least as long as they are, so a compaction moves no more bytes than
   were consumed since the previous one; otherwise the store doubles. *)
type queue = { mutable store : Bytes.t; mutable base : int; mutable len : int }

let queue_create () = { store = Bytes.create 4096; base = 0; len = 0 }

let queue_push q data ~off ~len =
  let cap = Bytes.length q.store in
  if q.base + q.len + len > cap then begin
    if q.base >= q.len && q.len + len <= cap then Bytes.blit q.store q.base q.store 0 q.len
    else begin
      let fresh = Bytes.create (max (2 * cap) (q.len + len)) in
      Bytes.blit q.store q.base fresh 0 q.len;
      q.store <- fresh
    end;
    q.base <- 0
  end;
  Bytes.blit data off q.store (q.base + q.len) len;
  q.len <- q.len + len

let queue_drop q n =
  q.len <- q.len - n;
  q.base <- (if q.len = 0 then 0 else q.base + n)

type t = {
  cfg : config;
  cb : callbacks;
  mutable state : state;
  (* --- send side --- *)
  tx : queue;  (* stream bytes [data_start, tx_end) *)
  mutable snd_una : int;  (* oldest unacknowledged stream offset *)
  mutable snd_nxt : int;  (* next offset to transmit *)
  mutable fin_offset : int option;  (* our FIN's stream offset, once decided *)
  mutable fin_requested : bool;
  mutable fin_acked : bool;
  mutable peer_window : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable dup_acks : int;
  mutable rto : int;
  mutable srtt : int;  (* 0 = no sample yet *)
  mutable rttvar : int;
  mutable rtt_probe : (int * int) option;  (* (offset, sent_at) being timed *)
  mutable timer_armed : bool;
  mutable retransmissions : int;
  mutable max_sent : int;  (* highest offset ever transmitted + 1 *)
  (* --- receive side --- *)
  mutable peer_isn_known : bool;
  mutable peer_isn : int;
  mutable rcv_nxt : int;  (* next expected peer stream offset *)
  rx : queue;  (* in-order data awaiting the application *)
  ooo : (int, bytes) Hashtbl.t;  (* out-of-order segments by peer offset *)
  mutable peer_fin_offset : int option;
  mutable peer_fin_delivered : bool;
}

let mask32 v = v land 0xFFFF_FFFF

(* Choose the unwrapped value congruent to [wire] (mod 2^32) nearest
   to [near]. *)
let unwrap ~near wire =
  let base = near - (near land 0xFFFF_FFFF) in
  let candidate = base + wire in
  let best = ref candidate in
  let consider c = if abs (c - near) < abs (!best - near) then best := c in
  consider (candidate - 0x1_0000_0000);
  consider (candidate + 0x1_0000_0000);
  !best

let create cfg cb state =
  {
    cfg;
    cb;
    state;
    tx = queue_create ();
    snd_una = 1;
    snd_nxt = 1;
    fin_offset = None;
    fin_requested = false;
    fin_acked = false;
    peer_window = mss;
    cwnd = 2 * mss;
    ssthresh = 65536;
    dup_acks = 0;
    rto = rto_initial;
    srtt = 0;
    rttvar = 0;
    rtt_probe = None;
    timer_armed = false;
    retransmissions = 0;
    max_sent = 1;
    peer_isn_known = false;
    peer_isn = 0;
    rcv_nxt = 1;
    rx = queue_create ();
    ooo = Hashtbl.create 16;
    peer_fin_offset = None;
    peer_fin_delivered = false;
  }

let rx_available t = t.rx.len
let tx_space t = t.cfg.tx_buffer - t.tx.len
let is_established t = t.state = Established
let retransmissions t = t.retransmissions

let peer_closed t =
  match t.peer_fin_offset with Some off -> t.rcv_nxt >= off + 1 | None -> false

let is_closed t = t.state = Done

(* Our advertised window: free receive-buffer space. *)
let advertised_window t = max 0 (t.cfg.rx_window - t.rx.len)

let wire_seq t offset = mask32 (t.cfg.isn + offset)
let wire_ack t = mask32 (t.peer_isn + t.rcv_nxt)

let base_segment t =
  {
    Wire.src_port = t.cfg.local_port;
    dst_port = t.cfg.remote_port;
    seq = wire_seq t t.snd_nxt;
    ack_no = (if t.peer_isn_known then wire_ack t else 0);
    syn = false;
    ack = t.peer_isn_known;
    fin = false;
    rst = false;
    window = advertised_window t;
    payload = Bytes.empty;
  }

let emit_ack t = t.cb.emit (base_segment t)

let arm_timer t =
  t.timer_armed <- true;
  t.cb.set_timer (Some t.rto)

let cancel_timer t =
  if t.timer_armed then begin
    t.timer_armed <- false;
    t.cb.set_timer None
  end

(* --- send buffer management --- *)

(* Application data starts at stream offset 1 (offset 0 is the SYN);
   the queue holds [data_start, data_start + tx.len). *)
let data_start t = max t.snd_una 1

let tx_end t = data_start t + t.tx.len

(* Bytes of the stream range [offset, offset+len) from the queue. *)
let tx_slice t ~offset ~len = Bytes.sub t.tx.store (t.tx.base + (offset - data_start t)) len

let flight t = t.snd_nxt - t.snd_una

(* Transmit one (re)transmission starting at [offset]. *)
let transmit_at t ~now ~offset =
  let data_end = tx_end t in
  let fin_here =
    match t.fin_offset with Some f -> offset = f | None -> false
  in
  if fin_here then begin
    let seg = { (base_segment t) with Wire.seq = wire_seq t offset; fin = true } in
    t.cb.emit seg
  end
  else begin
    let len = min mss (data_end - offset) in
    let payload = tx_slice t ~offset ~len in
    let seg = { (base_segment t) with Wire.seq = wire_seq t offset; payload } in
    (* Karn: only time segments that are not retransmissions. *)
    if t.rtt_probe = None && offset >= t.max_sent then t.rtt_probe <- Some (offset, now);
    t.max_sent <- max t.max_sent (offset + len);
    t.cb.emit seg
  end

(* Send whatever the congestion + flow-control windows allow. *)
let rec pump t ~now =
  if t.state = Established then begin
    let window = min t.cwnd (max mss t.peer_window) in
    let limit = t.snd_una + window in
    let data_end = tx_end t in
    let fin_off = t.fin_offset in
    let can_send_data = t.snd_nxt < data_end && t.snd_nxt < limit in
    let can_send_fin = (match fin_off with Some f -> t.snd_nxt = f | None -> false) && t.snd_nxt <= limit in
    if can_send_data then begin
      transmit_at t ~now ~offset:t.snd_nxt;
      let len = min mss (data_end - t.snd_nxt) in
      t.snd_nxt <- t.snd_nxt + len;
      if not t.timer_armed then arm_timer t;
      pump t ~now
    end
    else if can_send_fin then begin
      transmit_at t ~now ~offset:t.snd_nxt;
      t.snd_nxt <- t.snd_nxt + 1;
      if not t.timer_armed then arm_timer t
    end
  end

(* Decide the FIN offset once the application has no more data. *)
let maybe_place_fin t ~now =
  if t.fin_requested && t.fin_offset = None then begin
    t.fin_offset <- Some (tx_end t);
    pump t ~now
  end

(* --- public send/recv --- *)

let send t ~now data ~off ~len =
  if t.state = Done || t.fin_requested then 0
  else begin
    let accept = min len (tx_space t) in
    if accept > 0 then begin
      queue_push t.tx data ~off ~len:accept;
      pump t ~now
    end;
    accept
  end

let recv t ~max =
  let take = min max t.rx.len in
  if take <= 0 then Bytes.empty
  else begin
    let data = Bytes.sub t.rx.store t.rx.base take in
    queue_drop t.rx take;
    data
  end

let close t ~now =
  if not t.fin_requested then begin
    t.fin_requested <- true;
    maybe_place_fin t ~now
  end

let abort t =
  if t.state <> Done then begin
    t.cb.emit { (base_segment t) with Wire.rst = true };
    t.state <- Done;
    cancel_timer t;
    t.cb.notify Ev_closed
  end

(* --- connection setup --- *)

let send_syn t =
  let seg =
    {
      (base_segment t) with
      Wire.seq = wire_seq t 0;
      syn = true;
      ack = t.peer_isn_known;
      ack_no = (if t.peer_isn_known then wire_ack t else 0);
    }
  in
  t.cb.emit seg

let create_active cfg ~now cb =
  ignore now;
  let t = create cfg cb Syn_sent in
  t.snd_una <- 0;
  t.snd_nxt <- 1;
  send_syn t;
  arm_timer t;
  t

let create_passive cfg ~now cb =
  ignore now;
  create cfg cb Listen

(* --- ACK processing --- *)

let update_rtt t ~now ~acked_offset =
  match t.rtt_probe with
  | Some (offset, sent_at) when acked_offset > offset ->
      t.rtt_probe <- None;
      let sample = max 1 (now - sent_at) in
      if t.srtt = 0 then begin
        t.srtt <- sample;
        t.rttvar <- sample / 2
      end
      else begin
        let delta = abs (sample - t.srtt) in
        t.rttvar <- ((3 * t.rttvar) + delta) / 4;
        t.srtt <- ((7 * t.srtt) + sample) / 8
      end;
      t.rto <- max rto_initial (min rto_max (t.srtt + (4 * t.rttvar)))
  | Some _ | None -> ()

let fast_retransmit t ~now =
  t.retransmissions <- t.retransmissions + 1;
  t.ssthresh <- max (flight t / 2) (2 * mss);
  t.cwnd <- t.ssthresh;
  transmit_at t ~now ~offset:t.snd_una

let process_ack t ~now ack_offset window =
  t.peer_window <- window;
  if ack_offset > t.snd_una then begin
    update_rtt t ~now ~acked_offset:ack_offset;
    (* Drop acknowledged bytes from the send buffer (the SYN at offset
       0 and the FIN occupy no buffer space). *)
    let data_acked = min (tx_end t) ack_offset in
    let drop = max 0 (data_acked - data_start t) in
    if drop > 0 then queue_drop t.tx drop;
    t.snd_una <- ack_offset;
    if t.snd_nxt < t.snd_una then t.snd_nxt <- t.snd_una;
    t.dup_acks <- 0;
    (* Congestion window growth. *)
    if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + mss
    else t.cwnd <- t.cwnd + max 1 (mss * mss / t.cwnd);
    (match t.fin_offset with
    | Some f when ack_offset >= f + 1 -> t.fin_acked <- true
    | Some _ | None -> ());
    if t.snd_una >= t.snd_nxt then cancel_timer t
    else begin
      (* restart for the remaining flight *)
      cancel_timer t;
      arm_timer t
    end;
    if tx_space t > 0 then t.cb.notify Ev_tx_space;
    pump t ~now;
    maybe_place_fin t ~now
  end
  else if ack_offset = t.snd_una && flight t > 0 then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 then fast_retransmit t ~now
  end

(* --- receive processing --- *)

let deliver_in_order t =
  (* Pull contiguous out-of-order segments into the app buffer. *)
  let progressing = ref true in
  while !progressing do
    match Hashtbl.find_opt t.ooo t.rcv_nxt with
    | Some data ->
        Hashtbl.remove t.ooo t.rcv_nxt;
        queue_push t.rx data ~off:0 ~len:(Bytes.length data);
        t.rcv_nxt <- t.rcv_nxt + Bytes.length data
    | None -> progressing := false
  done

(* Consume the peer's FIN when it is next in sequence.  The single
   place [rcv_nxt] crosses the FIN offset: reassembly must never
   advance past it silently, or [Ev_peer_closed] is lost and the
   application waits on a stream that already ended. *)
let consume_fin t =
  match t.peer_fin_offset with
  | Some f when t.rcv_nxt = f ->
      t.rcv_nxt <- t.rcv_nxt + 1;
      if not t.peer_fin_delivered then begin
        t.peer_fin_delivered <- true;
        t.cb.notify Ev_peer_closed
      end
  | Some _ | None -> ()

let process_payload t ~seg_offset payload =
  let len = Bytes.length payload in
  if len > 0 then begin
    if seg_offset <= t.rcv_nxt && t.rcv_nxt < seg_offset + len then begin
      (* Overlapping or exactly next: take the unseen suffix. *)
      let skip = t.rcv_nxt - seg_offset in
      let fresh = len - skip in
      let room = advertised_window t in
      let take = min fresh room in
      if take > 0 then begin
        queue_push t.rx payload ~off:skip ~len:take;
        t.rcv_nxt <- t.rcv_nxt + take;
        deliver_in_order t;
        t.cb.notify Ev_rx_ready
      end
    end
    else if seg_offset > t.rcv_nxt && Hashtbl.length t.ooo < 128
            && seg_offset - t.rcv_nxt < t.cfg.rx_window then
      Hashtbl.replace t.ooo seg_offset payload
  end

let handle_segment t ~now (seg : Wire.tcp_segment) =
  if t.state = Done then ()
  else if seg.Wire.rst then begin
    t.state <- Done;
    cancel_timer t;
    t.cb.notify Ev_reset;
    t.cb.notify Ev_closed
  end
  else begin
    (* SYN processing: learn the peer's ISN. *)
    if seg.Wire.syn && not t.peer_isn_known then begin
      t.peer_isn_known <- true;
      t.peer_isn <- seg.Wire.seq;
      t.rcv_nxt <- 1
    end;
    match t.state with
    | Listen ->
        if seg.Wire.syn then begin
          t.state <- Syn_received;
          t.snd_una <- 0;
          t.snd_nxt <- 1;
          send_syn t;
          arm_timer t
        end
    | Syn_sent ->
        if seg.Wire.syn && seg.Wire.ack then begin
          let ack_off = unwrap ~near:1 (mask32 (seg.Wire.ack_no - t.cfg.isn)) in
          if ack_off >= 1 then begin
            t.state <- Established;
            t.snd_una <- 1;
            t.dup_acks <- 0;
            cancel_timer t;
            emit_ack t;
            t.cb.notify Ev_established;
            pump t ~now;
            maybe_place_fin t ~now
          end
        end
        else if seg.Wire.syn then begin
          (* Simultaneous open: degrade to SYN_RECEIVED semantics. *)
          t.state <- Syn_received;
          send_syn t
        end
    | Syn_received ->
        if seg.Wire.ack then begin
          let ack_off = unwrap ~near:1 (mask32 (seg.Wire.ack_no - t.cfg.isn)) in
          if ack_off >= 1 then begin
            t.state <- Established;
            t.snd_una <- max t.snd_una 1;
            cancel_timer t;
            t.cb.notify Ev_established;
            (* Fall through to normal processing of any payload. *)
            let seg_offset = unwrap ~near:t.rcv_nxt (mask32 (seg.Wire.seq - t.peer_isn)) in
            (* FIN bookkeeping, as in [Established]: the first segment
               after the handshake may already carry the peer's FIN. *)
            if seg.Wire.fin then begin
              let fin_off = seg_offset + Bytes.length seg.Wire.payload in
              if t.peer_fin_offset = None then t.peer_fin_offset <- Some fin_off
            end;
            process_payload t ~seg_offset seg.Wire.payload;
            consume_fin t;
            if Bytes.length seg.Wire.payload > 0 || seg.Wire.fin then emit_ack t;
            pump t ~now
          end
        end
        else if seg.Wire.syn then send_syn t (* our SYNACK was lost *)
    | Established ->
        if seg.Wire.syn then
          (* Retransmitted handshake segment; re-ack it. *)
          emit_ack t
        else begin
          if seg.Wire.ack then begin
            let ack_off = unwrap ~near:t.snd_una (mask32 (seg.Wire.ack_no - t.cfg.isn)) in
            process_ack t ~now ack_off seg.Wire.window
          end;
          let seg_offset = unwrap ~near:t.rcv_nxt (mask32 (seg.Wire.seq - t.peer_isn)) in
          (* FIN bookkeeping. *)
          if seg.Wire.fin then begin
            let fin_off = seg_offset + Bytes.length seg.Wire.payload in
            if t.peer_fin_offset = None then t.peer_fin_offset <- Some fin_off
          end;
          let had_payload = Bytes.length seg.Wire.payload > 0 in
          process_payload t ~seg_offset seg.Wire.payload;
          consume_fin t;
          if had_payload || seg.Wire.fin then emit_ack t;
          (* Connection teardown: both FINs acknowledged. *)
          if t.fin_acked && peer_closed t then begin
            t.state <- Done;
            cancel_timer t;
            t.cb.notify Ev_closed
          end
        end
    | Done -> ()
  end

let handle_timer t ~now =
  t.timer_armed <- false;
  match t.state with
  | Syn_sent | Syn_received ->
      t.retransmissions <- t.retransmissions + 1;
      t.rto <- min (t.rto * 2) rto_max;
      send_syn t;
      arm_timer t
  | Established ->
      if flight t > 0 then begin
        t.retransmissions <- t.retransmissions + 1;
        t.ssthresh <- max (flight t / 2) (2 * mss);
        t.cwnd <- mss;
        t.rto <- min (t.rto * 2) rto_max;
        t.rtt_probe <- None;
        (* Go-back-N: everything after snd_una is presumed lost (the
           whole flight dies with a crashed driver); retransmit from
           the cumulative-ACK point under the collapsed window. *)
        t.snd_nxt <- t.snd_una;
        pump t ~now;
        if (not t.timer_armed) && flight t > 0 then arm_timer t
      end
  | Listen | Done -> ()
