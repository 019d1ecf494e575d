module Engine = Resilix_sim.Engine
module Link = Resilix_hw.Link
module Rng = Resilix_sim.Rng

(* Server-side connection state (the wget/storm file server). *)
type pconn = {
  key : int * int * int; (* remote ip, remote port, local port *)
  remote_ip : int;
  remote_mac : int;
  tcp : Tcp.t;
  tkey : int; (* timer key in the shared timer set *)
  request : Buffer.t;
  mutable serving : (int * int * int) option; (* seed, size, sent *)
  mutable done_serving : bool;
}

type flow = {
  fl_key : int * int * int;
  fl_tkey : int;
  mutable fl_tcp : Tcp.t option; (* None only during construction *)
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  link : Link.t;
  side : Link.side;
  ip : int;
  mac : int;
  files : (string, int * int) Hashtbl.t;
  conns : (int * int * int, Tcp.t) Hashtbl.t; (* segment demux *)
  (* One engine event serves every connection's retransmission timer:
     per-connection timers live in a shared Timerset (heap, lazy
     deletion) keyed by a per-peer counter, exactly like INET's single
     kernel alarm — at C10K one pending engine event instead of one
     per connection. *)
  timers : Timerset.t;
  timer_conns : (int, Tcp.t) Hashtbl.t; (* timer key -> connection *)
  mutable next_tkey : int;
  mutable alarm : Engine.handle option;
  mutable alarm_deadline : int;
  mutable next_client_port : int;
  mutable accepted : int;
  mutable udp_seq : int;
}

let file_md5 t name =
  Option.map (fun (size, seed) -> Filegen.md5_digest ~seed ~size) (Hashtbl.find_opt t.files name)

let connections t = t.accepted

let emit_frame t ~dst_mac ~dst_ip body =
  let frame =
    { Wire.dst_mac; src_mac = t.mac; packet = { Wire.src_ip = t.ip; dst_ip; body } }
  in
  Link.send t.link t.side (Wire.encode frame)

(* ------------------------------------------------------------------ *)
(* Shared timer plumbing                                               *)
(* ------------------------------------------------------------------ *)

let rec rearm t =
  match Timerset.next_deadline t.timers with
  | None -> ()
  | Some deadline ->
      let stale = match t.alarm with None -> true | Some _ -> deadline < t.alarm_deadline in
      if stale then begin
        (match t.alarm with Some h -> Engine.cancel h | None -> ());
        t.alarm_deadline <- deadline;
        t.alarm <-
          Some
            (Engine.schedule_at t.engine ~at:(max deadline (Engine.now t.engine)) (fun () ->
                 t.alarm <- None;
                 fire t))
      end

and fire t =
  let now = Engine.now t.engine in
  let due = Timerset.take_due t.timers ~now in
  List.iter
    (fun tkey ->
      match Hashtbl.find_opt t.timer_conns tkey with
      | Some tcp -> Tcp.handle_timer tcp ~now
      | None -> ())
    due;
  rearm t

let alloc_tkey t =
  let k = t.next_tkey in
  t.next_tkey <- t.next_tkey + 1;
  k

let set_conn_timer t ~tkey delay =
  (match delay with
  | Some d -> Timerset.set t.timers ~key:tkey ~deadline:(Engine.now t.engine + d)
  | None -> Timerset.cancel t.timers ~key:tkey);
  rearm t

let drop_timer t ~tkey =
  Timerset.cancel t.timers ~key:tkey;
  Hashtbl.remove t.timer_conns tkey

(* ------------------------------------------------------------------ *)
(* The file server (port 80)                                           *)
(* ------------------------------------------------------------------ *)

(* Push file bytes into the connection as send-buffer space allows. *)
let rec pump_file t conn =
  match conn.serving with
  | None -> ()
  | Some (seed, size, sent) ->
      if sent >= size then begin
        if not conn.done_serving then begin
          conn.done_serving <- true;
          Tcp.close conn.tcp ~now:(Engine.now t.engine)
        end
      end
      else begin
        let space = Tcp.tx_space conn.tcp in
        if space > 0 then begin
          let len = min (min space 16384) (size - sent) in
          let data = Filegen.read ~seed ~off:sent ~len in
          let accepted = Tcp.send conn.tcp ~now:(Engine.now t.engine) data ~off:0 ~len in
          conn.serving <- Some (seed, size, sent + accepted);
          if accepted > 0 then pump_file t conn
        end
      end

let handle_request t conn =
  let s = Buffer.contents conn.request in
  match String.index_opt s '\n' with
  | None -> ()
  | Some i -> (
      let line = String.trim (String.sub s 0 i) in
      match String.split_on_char ' ' line with
      | [ "GET"; name ] -> (
          match Hashtbl.find_opt t.files name with
          | Some (size, seed) ->
              conn.serving <- Some (seed, size, 0);
              pump_file t conn
          | None -> Tcp.close conn.tcp ~now:(Engine.now t.engine))
      | _ -> Tcp.close conn.tcp ~now:(Engine.now t.engine))

let make_conn t ~key ~remote_ip ~remote_port ~remote_mac =
  let tkey = alloc_tkey t in
  let rec conn =
    lazy
      (let cb =
         {
           Tcp.emit =
             (fun seg ->
               let c = Lazy.force conn in
               emit_frame t ~dst_mac:c.remote_mac ~dst_ip:c.remote_ip (Wire.Tcp seg));
           set_timer = (fun delay -> set_conn_timer t ~tkey delay);
           notify =
             (fun ev ->
               let c = Lazy.force conn in
               match ev with
               | Tcp.Ev_rx_ready ->
                   let data = Tcp.recv c.tcp ~max:4096 in
                   Buffer.add_bytes c.request data;
                   if c.serving = None then handle_request t c
               | Tcp.Ev_tx_space -> pump_file t c
               | Tcp.Ev_established -> ()
               | Tcp.Ev_peer_closed ->
                   if c.serving = None then Tcp.close c.tcp ~now:(Engine.now t.engine)
               | Tcp.Ev_reset | Tcp.Ev_closed ->
                   drop_timer t ~tkey:c.tkey;
                   Hashtbl.remove t.conns c.key)
         }
       in
       let _, rport, lport = key in
       let cfg = Tcp.default_config ~local_port:lport ~remote_port:rport ~isn:(Rng.int t.rng 0x3FFFFFFF) in
       {
         key;
         remote_ip;
         remote_mac;
         tcp = Tcp.create_passive cfg ~now:(Engine.now t.engine) cb;
         tkey;
         request = Buffer.create 64;
         serving = None;
         done_serving = false;
       })
  in
  let c = Lazy.force conn in
  Hashtbl.replace t.conns key c.tcp;
  Hashtbl.replace t.timer_conns tkey c.tcp;
  t.accepted <- t.accepted + 1;
  c

let on_frame t raw =
  match Wire.decode raw with
  | Error _ -> () (* corrupted on the wire: drop *)
  | Ok frame ->
      if frame.Wire.packet.dst_ip = t.ip then begin
        match frame.Wire.packet.body with
        | Wire.Tcp seg -> begin
            let key = (frame.Wire.packet.src_ip, seg.Wire.src_port, seg.Wire.dst_port) in
            match Hashtbl.find_opt t.conns key with
            | Some tcp -> Tcp.handle_segment tcp ~now:(Engine.now t.engine) seg
            | None ->
                if seg.Wire.syn && seg.Wire.dst_port = 80 then begin
                  let conn =
                    make_conn t ~key ~remote_ip:frame.Wire.packet.src_ip
                      ~remote_port:seg.Wire.src_port ~remote_mac:frame.Wire.src_mac
                  in
                  Tcp.handle_segment conn.tcp ~now:(Engine.now t.engine) seg
                end
                else if not seg.Wire.rst then
                  (* Stateless reset for strays. *)
                  emit_frame t ~dst_mac:frame.Wire.src_mac ~dst_ip:frame.Wire.packet.src_ip
                    (Wire.Tcp
                       {
                         Wire.src_port = seg.Wire.dst_port;
                         dst_port = seg.Wire.src_port;
                         seq = seg.Wire.ack_no;
                         ack_no = 0;
                         syn = false;
                         ack = false;
                         fin = false;
                         rst = true;
                         window = 0;
                         payload = Bytes.empty;
                       })
          end
        | Wire.Udp dgram ->
            if dgram.Wire.dst_port = 7 then
              (* Echo service. *)
              emit_frame t ~dst_mac:frame.Wire.src_mac ~dst_ip:frame.Wire.packet.src_ip
                (Wire.Udp
                   {
                     Wire.src_port = 7;
                     dst_port = dgram.Wire.src_port;
                     payload = dgram.Wire.payload;
                   })
      end

let create ~engine ~rng ~link ~side ~ip ~mac ?(files = []) () =
  let t =
    {
      engine;
      rng;
      link;
      side;
      ip;
      mac;
      files = Hashtbl.create 8;
      conns = Hashtbl.create 64;
      timers = Timerset.create ();
      timer_conns = Hashtbl.create 64;
      next_tkey = 0;
      alarm = None;
      alarm_deadline = 0;
      next_client_port = 50_000;
      accepted = 0;
      udp_seq = 0;
    }
  in
  List.iter (fun (name, size_seed) -> Hashtbl.replace t.files name size_seed) files;
  Link.attach link side (on_frame t);
  t

(* ------------------------------------------------------------------ *)
(* Outbound client flows                                               *)
(* ------------------------------------------------------------------ *)

let flow_tcp f =
  match f.fl_tcp with Some tcp -> tcp | None -> invalid_arg "Peer.flow_tcp: under construction"

let open_flow t ~dst_ip ~dst_mac ~dst_port ~notify () =
  (* Sequential ephemeral ports: collision-free for any number of
     concurrent flows (the old random pick had birthday collisions by
     a few hundred). *)
  let local_port = t.next_client_port in
  t.next_client_port <- (if local_port >= 65_000 then 50_000 else local_port + 1);
  let key = (dst_ip, dst_port, local_port) in
  let tkey = alloc_tkey t in
  let flow = { fl_key = key; fl_tkey = tkey; fl_tcp = None } in
  let cb =
    {
      Tcp.emit = (fun seg -> emit_frame t ~dst_mac ~dst_ip (Wire.Tcp seg));
      set_timer = (fun delay -> set_conn_timer t ~tkey delay);
      notify =
        (fun ev ->
          (match ev with
          | Tcp.Ev_reset | Tcp.Ev_closed ->
              drop_timer t ~tkey;
              Hashtbl.remove t.conns key
          | _ -> ());
          notify flow ev);
    }
  in
  let cfg =
    {
      (Tcp.default_config ~local_port ~remote_port:dst_port ~isn:(Rng.int t.rng 0x3FFFFFFF)) with
      Tcp.rx_window = 65536;
      tx_buffer = 16384;
    }
  in
  let tcp = Tcp.create_active cfg ~now:(Engine.now t.engine) cb in
  flow.fl_tcp <- Some tcp;
  (* The SYN may be answered only after several RTOs; register for
     demux and timers even if the handshake retransmits. *)
  Hashtbl.replace t.conns key tcp;
  Hashtbl.replace t.timer_conns tkey tcp;
  flow

let flow_close t f =
  match f.fl_tcp with Some tcp -> Tcp.close tcp ~now:(Engine.now t.engine) | None -> ()

let flow_abort t f =
  match f.fl_tcp with
  | Some tcp ->
      Tcp.abort tcp;
      drop_timer t ~tkey:f.fl_tkey;
      Hashtbl.remove t.conns f.fl_key
  | None -> ()

type client_result = {
  mutable connected : bool;
  mutable response : string;
  mutable closed : bool;
}

(* An outbound TCP connection from the peer into the machine under
   test: used to exercise the network server's passive-open path. *)
let start_tcp_client t ~dst_ip ~dst_mac ~dst_port ~payload =
  let result = { connected = false; response = ""; closed = false } in
  ignore
    (open_flow t ~dst_ip ~dst_mac ~dst_port
       ~notify:(fun flow ev ->
         match ev with
         | Tcp.Ev_established ->
             result.connected <- true;
             ignore
               (Tcp.send (flow_tcp flow) ~now:(Engine.now t.engine) (Bytes.of_string payload)
                  ~off:0 ~len:(String.length payload))
         | Tcp.Ev_rx_ready ->
             let data = Tcp.recv (flow_tcp flow) ~max:65536 in
             result.response <- result.response ^ Bytes.to_string data
         | Tcp.Ev_peer_closed -> Tcp.close (flow_tcp flow) ~now:(Engine.now t.engine)
         | Tcp.Ev_reset | Tcp.Ev_closed -> result.closed <- true
         | Tcp.Ev_tx_space -> ())
       ());
  result

let start_udp_stream t ~dst_ip ~dst_mac ~dst_port ~src_port ~payload_len ~interval =
  let stopped = ref false in
  let rec tick () =
    if not !stopped then begin
      t.udp_seq <- t.udp_seq + 1;
      let payload = Bytes.make payload_len (Char.chr (t.udp_seq land 0xFF)) in
      emit_frame t ~dst_mac ~dst_ip (Wire.Udp { Wire.src_port; dst_port; payload });
      ignore (Engine.schedule t.engine ~after:interval tick)
    end
  in
  tick ();
  fun () -> stopped := true
