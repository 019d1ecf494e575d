type key = int * int * int

type t = {
  now : unit -> int;
  arm : int option -> unit;
  conns : (key, Tcp.t) Hashtbl.t;
  (* Every connection's retransmission timer lives in one heap, so the
     caller keeps a single deadline source whatever the number of
     connections. *)
  timers : Timerset.t;
  timer_conns : (int, Tcp.t) Hashtbl.t;
}

let create ~now ~arm =
  { now; arm; conns = Hashtbl.create 64; timers = Timerset.create (); timer_conns = Hashtbl.create 64 }

let rearm t = t.arm (Timerset.next_deadline t.timers)

let open_conn t ~key ~tkey ~active cfg ~emit ~notify =
  let set_timer delay =
    (match delay with
    | Some d -> Timerset.set t.timers ~key:tkey ~deadline:(t.now () + d)
    | None -> Timerset.cancel t.timers ~key:tkey);
    rearm t
  in
  let create = if active then Tcp.create_active else Tcp.create_passive in
  let tcp = create cfg ~now:(t.now ()) { Tcp.emit; set_timer; notify } in
  Hashtbl.replace t.conns key tcp;
  Hashtbl.replace t.timer_conns tkey tcp;
  tcp

let forget t ~key ~tkey tcp =
  (match Hashtbl.find_opt t.conns key with
  | Some c when c == tcp -> Hashtbl.remove t.conns key
  | Some _ | None -> ());
  match Hashtbl.find_opt t.timer_conns tkey with
  | Some c when c == tcp ->
      Timerset.cancel t.timers ~key:tkey;
      Hashtbl.remove t.timer_conns tkey
  | Some _ | None -> ()

let input t ~remote_ip (seg : Wire.tcp_segment) =
  match Hashtbl.find_opt t.conns (remote_ip, seg.Wire.src_port, seg.Wire.dst_port) with
  | Some tcp ->
      Tcp.handle_segment tcp ~now:(t.now ()) seg;
      true
  | None -> false

let fire t =
  List.iter
    (fun tkey ->
      match Hashtbl.find_opt t.timer_conns tkey with
      | Some tcp -> Tcp.handle_timer tcp ~now:(t.now ())
      | None -> ())
    (Timerset.take_due t.timers ~now:(t.now ()));
  rearm t

let reset_for (seg : Wire.tcp_segment) =
  if seg.Wire.rst then None
  else
    let rst =
      {
        Wire.src_port = seg.Wire.dst_port;
        dst_port = seg.Wire.src_port;
        seq = 0;
        ack_no = 0;
        syn = false;
        ack = false;
        fin = false;
        rst = true;
        window = 0;
        payload = Bytes.empty;
      }
    in
    if seg.Wire.ack then Some { rst with Wire.seq = seg.Wire.ack_no }
    else
      let occupied =
        Bytes.length seg.Wire.payload + Bool.to_int seg.Wire.syn + Bool.to_int seg.Wire.fin
      in
      Some { rst with Wire.ack_no = (seg.Wire.seq + occupied) land 0xFFFF_FFFF; ack = true }
