module Engine = Resilix_sim.Engine
module Link = Resilix_hw.Link
module Rng = Resilix_sim.Rng

(* Server-side connection state (the wget/storm file server). *)
type pconn = {
  key : Host.key;
  tkey : int;
  tcp : Tcp.t;
  request : Buffer.t;
  mutable serving : (int * int * int) option; (* seed, size, sent *)
  mutable done_serving : bool;
}

type flow = Tcp.t

type t = {
  engine : Engine.t;
  rng : Rng.t;
  link : Link.t;
  side : Link.side;
  ip : int;
  mac : int;
  files : (string, int * int) Hashtbl.t;
  host : Host.t;
  mutable next_tkey : int;
  mutable next_client_port : int;
  mutable udp_seq : int;
}

let file_md5 t name =
  Option.map (fun (size, seed) -> Filegen.md5_digest ~seed ~size) (Hashtbl.find_opt t.files name)

let emit_frame t ~dst_mac ~dst_ip body =
  let frame =
    { Wire.dst_mac; src_mac = t.mac; packet = { Wire.src_ip = t.ip; dst_ip; body } }
  in
  Link.send t.link t.side (Wire.encode frame)

let alloc_tkey t =
  let k = t.next_tkey in
  t.next_tkey <- t.next_tkey + 1;
  k

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

let on_server_event t c = function
  | Tcp.Ev_rx_ready ->
      Buffer.add_bytes c.request (Tcp.recv c.tcp ~max:4096);
      if c.serving = None then handle_request t c
  | Tcp.Ev_tx_space -> pump_file t c
  | Tcp.Ev_established -> ()
  | Tcp.Ev_peer_closed -> if c.serving = None then Tcp.close c.tcp ~now:(Engine.now t.engine)
  | Tcp.Ev_reset | Tcp.Ev_closed -> Host.forget t.host ~key:c.key ~tkey:c.tkey c.tcp

(* Passive open for a SYN to port 80. *)
let accept t ~key ~remote_ip ~remote_mac =
  let tkey = alloc_tkey t in
  let _, rport, lport = key in
  let cfg = Tcp.default_config ~local_port:lport ~remote_port:rport ~isn:(Rng.int t.rng 0x3FFFFFFF) in
  let rec conn =
    lazy
      {
        key;
        tkey;
        tcp =
          Host.open_conn t.host ~key ~tkey ~active:false cfg
            ~emit:(fun seg -> emit_frame t ~dst_mac:remote_mac ~dst_ip:remote_ip (Wire.Tcp seg))
            ~notify:(fun ev -> on_server_event t (Lazy.force conn) ev);
        request = Buffer.create 64;
        serving = None;
        done_serving = false;
      }
  in
  ignore (Lazy.force conn)

let on_frame t raw =
  match Wire.decode raw with
  | Error _ -> () (* corrupted on the wire: drop *)
  | Ok frame ->
      if frame.Wire.packet.dst_ip = t.ip then begin
        let remote_ip = frame.Wire.packet.src_ip in
        match frame.Wire.packet.body with
        | Wire.Tcp seg ->
            if not (Host.input t.host ~remote_ip seg) then
              if seg.Wire.syn && seg.Wire.dst_port = 80 then begin
                accept t ~key:(remote_ip, seg.Wire.src_port, seg.Wire.dst_port) ~remote_ip
                  ~remote_mac:frame.Wire.src_mac;
                ignore (Host.input t.host ~remote_ip seg)
              end
              else
                Option.iter
                  (fun rst -> emit_frame t ~dst_mac:frame.Wire.src_mac ~dst_ip:remote_ip (Wire.Tcp rst))
                  (Host.reset_for seg)
        | Wire.Udp dgram ->
            if dgram.Wire.dst_port = 7 then
              (* Echo service. *)
              emit_frame t ~dst_mac:frame.Wire.src_mac ~dst_ip:remote_ip
                (Wire.Udp
                   {
                     Wire.src_port = 7;
                     dst_port = dgram.Wire.src_port;
                     payload = dgram.Wire.payload;
                   })
      end

let create ~engine ~rng ~link ~side ~ip ~mac ?(files = []) () =
  (* One engine event serves every connection's timer, moved only when
     a timer comes due before it: at C10K one pending engine event
     instead of one per connection. *)
  let alarm = ref None and alarm_deadline = ref 0 in
  let rec host = lazy (Host.create ~now:(fun () -> Engine.now engine) ~arm)
  and arm = function
    | None -> ()
    | Some deadline ->
        if Option.is_none !alarm || deadline < !alarm_deadline then begin
          Option.iter Engine.cancel !alarm;
          alarm_deadline := deadline;
          alarm :=
            Some
              (Engine.schedule_at engine ~at:(max deadline (Engine.now engine)) (fun () ->
                   alarm := None;
                   Host.fire (Lazy.force host)))
        end
  in
  let t =
    {
      engine;
      rng;
      link;
      side;
      ip;
      mac;
      files = Hashtbl.create 8;
      host = Lazy.force host;
      next_tkey = 0;
      next_client_port = 50_000;
      udp_seq = 0;
    }
  in
  List.iter (fun (name, size_seed) -> Hashtbl.replace t.files name size_seed) files;
  Link.attach link side (on_frame t);
  t

(* ------------------------------------------------------------------ *)
(* Outbound client flows                                               *)
(* ------------------------------------------------------------------ *)

let flow_tcp f = f

let open_flow t ~dst_ip ~dst_mac ~dst_port ~notify () =
  (* Sequential ephemeral ports: collision-free for any number of
     concurrent flows (the old random pick had birthday collisions by
     a few hundred). *)
  let local_port = t.next_client_port in
  t.next_client_port <- (if local_port >= 65_000 then 50_000 else local_port + 1);
  let key = (dst_ip, dst_port, local_port) in
  let tkey = alloc_tkey t in
  let cfg =
    {
      (Tcp.default_config ~local_port ~remote_port:dst_port ~isn:(Rng.int t.rng 0x3FFFFFFF)) with
      Tcp.rx_window = 65536;
      tx_buffer = 16384;
    }
  in
  let rec flow =
    lazy
      (Host.open_conn t.host ~key ~tkey ~active:true cfg
         ~emit:(fun seg -> emit_frame t ~dst_mac ~dst_ip (Wire.Tcp seg))
         ~notify:(fun ev ->
           let f = Lazy.force flow in
           (match ev with
           | Tcp.Ev_reset | Tcp.Ev_closed -> Host.forget t.host ~key ~tkey f
           | _ -> ());
           notify f ev))
  in
  Lazy.force flow

let flow_close t f = Tcp.close f ~now:(Engine.now t.engine)

(* The RST's [Ev_closed] unregisters the flow. *)
let flow_abort f = Tcp.abort f

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
