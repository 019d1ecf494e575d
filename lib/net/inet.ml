module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown
module Metrics = Resilix_obs.Metrics

(* Address-space layout for INET's bounce buffers. *)
let tx_frame_buf = 0x20000
let rx_frame_buf = 0x20800
let frame_buf_size = 2048
let app_buf = 0x30000
let app_buf_size = 65536

type blocked_io = { app : Endpoint.t; grant : int; total : int; mutable progress : int }

type conn = {
  sock_id : int;
  tcp : Tcp.t;
  remote_ip : int;
  remote_port : int;
  local_port : int;
  mutable accepted : bool;
      (* the application owns the descriptor: active opens from birth,
         passive opens once delivered by accept *)
  mutable app_closed : bool; (* the application has called close *)
  mutable reaped : bool; (* demux/timer state already torn down *)
  mutable pending_connect : Endpoint.t option;
  mutable pending_recv : blocked_io option;
  mutable pending_send : blocked_io option;
}

type listener = {
  l_port : int;
  l_max : int; (* backlog bound: un-accepted conns beyond this are refused *)
  mutable backlog : int list; (* sock ids of established, unaccepted conns *)
  mutable l_queued : int; (* un-accepted conns, handshaking included *)
  pending_accepts : Endpoint.t Queue.t; (* blocked accept callers (worker pool) *)
}

type udp_sock = {
  mutable u_port : int;
  u_rxq : (int * int * bytes) Queue.t; (* src ip, src port, payload *)
  mutable u_pending_recv : (Endpoint.t * int * int) option;
}

type sock =
  | S_free
  | S_tcp_fresh
  | S_tcp_conn of conn
  | S_tcp_listen of listener
  | S_udp of udp_sock

type driver = {
  mutable ep : Endpoint.t option;
  mutable up : bool;
  mutable mac : int;
  mutable rx_grant : int option;
  mutable tx_grant : int option;
  mutable tx_busy : bool;
  tx_queue : bytes Queue.t;
  mutable generation : int;
  mutable degraded : bool;
}

(* Counter handles resolved once at [create] so per-event bumps skip
   the by-name registry lookup (the kernel does the same for its own
   counters). *)
type ctrs = {
  c_degraded_rejects : Metrics.counter;
  c_tx_postponed : Metrics.counter;
  c_accept_refused : Metrics.counter;
  c_rx_dropped : (string * Metrics.counter) list; (* by decode error *)
}

type t = {
  local_ip : int;
  gateway_mac : int;
  driver_key : string;
  ctrs : ctrs;
  mutable socks : sock array;
  mutable free_socks : int list; (* free slot ids; O(1) alloc at C10K scale *)
  host : Host.t; (* TCP connections, timer key = sock id *)
  listeners : (int, listener) Hashtbl.t; (* local port -> listener *)
  udp_ports : (int, udp_sock) Hashtbl.t;
  drv : driver;
  mutable next_ephemeral : int;
  spans : Resilix_obs.Span.t;
}

let tx_queue_cap = 256

let create ~local_ip ~gateway_mac ~driver_key ~spans ~metrics () =
  {
    local_ip;
    gateway_mac;
    driver_key;
    ctrs =
      {
        c_degraded_rejects = Metrics.counter metrics "inet.degraded_rejects";
        c_tx_postponed = Metrics.counter metrics "inet.tx.postponed";
        c_accept_refused = Metrics.counter metrics "inet.accept_refused";
        c_rx_dropped =
          (let name e = "inet.rx.dropped." ^ String.map (function ' ' -> '_' | c -> c) e in
           List.map (fun e -> (e, Metrics.counter metrics (name e))) Wire.decode_errors);
      };
    socks = Array.make 64 S_free;
    (* slot 0 stays unused so 0 is never a valid descriptor *)
    free_socks = List.init 63 (fun i -> i + 1);
    (* One kernel alarm serves every connection's timer. *)
    host =
      Host.create ~now:Api.now ~arm:(function
        | None -> ignore (Api.alarm 0)
        | Some deadline -> ignore (Api.alarm (max 1 (deadline - Api.now ()))));
    listeners = Hashtbl.create 8;
    udp_ports = Hashtbl.create 8;
    drv =
      {
        ep = None;
        up = false;
        mac = 0;
        rx_grant = None;
        tx_grant = None;
        tx_busy = false;
        tx_queue = Queue.create ();
        generation = 0;
        degraded = false;
      };
    next_ephemeral = 40000;
    spans;
  }

let driver_generation t = t.drv.generation

(* The degradation contract, INET side: while the driver's breaker is
   open we refuse work that would otherwise park forever — new TCP
   connects and UDP sends fail fast with [E_degraded].  Established
   connections keep their state; TCP retransmission resupplies them if
   the driver ever comes back. *)
let degraded_reject t src reply_msg =
  Metrics.incr t.ctrs.c_degraded_rejects;
  ignore (Api.send src reply_msg)

let log fmt = Api.trace "inet" fmt

(* ------------------------------------------------------------------ *)
(* Driver transmit path                                                *)
(* ------------------------------------------------------------------ *)

let rec pump_tx t =
  match t.drv.ep with
  | Some ep when t.drv.up && (not t.drv.tx_busy) && not (Queue.is_empty t.drv.tx_queue) -> begin
      let frame = Queue.pop t.drv.tx_queue in
      let len = Bytes.length frame in
      let mem = Api.memory () in
      Memory.write mem ~addr:tx_frame_buf frame;
      match Api.grant_create ~for_:ep ~base:tx_frame_buf ~len ~access:Sysif.Read_only with
      | Error _ -> ()
      | Ok grant -> (
          t.drv.tx_grant <- Some grant;
          match Api.asend ep (Message.Dl_writev { grant; len }) with
          | Ok () -> t.drv.tx_busy <- true
(*@recovery-begin*)
          | Error _ ->
              (* Driver just died; postpone (Sec. 6.1). *)
              ignore (Api.grant_revoke grant);
              t.drv.tx_grant <- None;
              t.drv.up <- false;
              Metrics.incr t.ctrs.c_tx_postponed;
              Queue.push frame t.drv.tx_queue)
    end
  | Some _ | None -> ()

(*@recovery-end*)
let enqueue_frame t frame =
  if Queue.length t.drv.tx_queue < tx_queue_cap then begin
    Queue.push frame t.drv.tx_queue
  end;
  (* over cap: drop — TCP will retransmit *)
  pump_tx t

let emit_packet t ~dst_ip body =
  let frame =
    {
      Wire.dst_mac = t.gateway_mac;
      src_mac = t.drv.mac;
      packet = { Wire.src_ip = t.local_ip; dst_ip; body };
    }
  in
  enqueue_frame t (Wire.encode frame)

(* ------------------------------------------------------------------ *)
(* TCP connection plumbing                                             *)
(* ------------------------------------------------------------------ *)

let reply src msg = ignore (Api.send src msg)

(* Complete as much of a blocked send as buffer space allows. *)
let continue_send t conn =
  match conn.pending_send with
  | None -> ()
  | Some io ->
      let mem = Api.memory () in
      let continue = ref true in
      while !continue && io.progress < io.total do
        let space = Tcp.tx_space conn.tcp in
        let want = min (min (io.total - io.progress) app_buf_size) space in
        if want <= 0 then continue := false
        else begin
          match
            Api.safecopy_from ~owner:io.app ~grant:io.grant ~grant_off:io.progress
              ~local_addr:app_buf ~len:want
          with
          | Error _ ->
              (* Application died while blocked; abandon. *)
              conn.pending_send <- None;
              continue := false
          | Ok () ->
              let data = Memory.read mem ~addr:app_buf ~len:want in
              let accepted = Tcp.send conn.tcp ~now:(Api.now ()) data ~off:0 ~len:want in
              io.progress <- io.progress + accepted;
              if accepted < want then continue := false
        end
      done;
      if io.progress >= io.total then begin
        conn.pending_send <- None;
        reply io.app (Message.In_io_reply { result = Ok io.total })
      end

(* Complete a blocked receive if data (or EOF) is available. *)
let continue_recv t conn =
  ignore t;
  match conn.pending_recv with
  | None -> ()
  | Some io ->
      let available = Tcp.rx_available conn.tcp in
      if available > 0 then begin
        let want = min (min io.total app_buf_size) available in
        let data = Tcp.recv conn.tcp ~max:want in
        let len = Bytes.length data in
        let mem = Api.memory () in
        Memory.write mem ~addr:app_buf data;
        conn.pending_recv <- None;
        match Api.safecopy_to ~owner:io.app ~grant:io.grant ~grant_off:0 ~local_addr:app_buf ~len with
        | Ok () -> reply io.app (Message.In_io_reply { result = Ok len })
        | Error _ -> () (* app died *)
      end
      else if Tcp.peer_closed conn.tcp || Tcp.is_closed conn.tcp then begin
        conn.pending_recv <- None;
        reply io.app (Message.In_io_reply { result = Ok 0 })
      end

let sock_of t id = if id >= 0 && id < Array.length t.socks then t.socks.(id) else S_free

let alloc_sock t =
  match t.free_socks with
  | id :: rest ->
      t.free_socks <- rest;
      Some id
  | [] ->
      let n = Array.length t.socks in
      let bigger = Array.make (2 * n) S_free in
      Array.blit t.socks 0 bigger 0 n;
      t.socks <- bigger;
      t.free_socks <- List.init (n - 1) (fun i -> n + 1 + i);
      Some n

let free_sock t id =
  t.socks.(id) <- S_free;
  t.free_socks <- id :: t.free_socks

(* Tear down a connection's demux/timer state once TCP is finished
   (reset, aborted, or closed both ways).  The socket slot itself is
   reclaimed only when no application can still reach it: immediately
   for never-accepted passive connections (which also leave the
   listener's backlog accounting), otherwise once the owner has called
   close. *)
let reap_conn t conn =
  if not conn.reaped then begin
    conn.reaped <- true;
    Host.forget t.host ~key:(conn.remote_ip, conn.remote_port, conn.local_port) ~tkey:conn.sock_id
      conn.tcp;
    if not conn.accepted then begin
      (match Hashtbl.find_opt t.listeners conn.local_port with
      | Some l ->
          l.backlog <- List.filter (fun id -> id <> conn.sock_id) l.backlog;
          l.l_queued <- l.l_queued - 1
      | None -> ());
      free_sock t conn.sock_id
    end
    else if conn.app_closed then free_sock t conn.sock_id
  end

(* Hand backlogged connections to blocked accept callers, FIFO both
   ways — with several worker apps parked in accept this is the
   shared-listener fan-out. *)
let rec deliver_accepts t l =
  if not (Queue.is_empty l.pending_accepts) then begin
    match l.backlog with
    | [] -> ()
    | next :: rest ->
        l.backlog <- rest;
        l.l_queued <- l.l_queued - 1;
        (match sock_of t next with
        | S_tcp_conn c -> c.accepted <- true
        | _ -> ());
        reply (Queue.pop l.pending_accepts) (Message.In_accept_reply { result = Ok next });
        deliver_accepts t l
  end

(* Events fire only once the conn record is installed in the socket
   table, so they find it by sock_id. *)
let conn_notify t sock_id ev =
  match t.socks.(sock_id) with
  | S_free | S_tcp_fresh | S_tcp_listen _ | S_udp _ -> ()
  | S_tcp_conn c -> (
      match ev with
      | Tcp.Ev_established -> begin
          (match c.pending_connect with
          | Some app ->
              c.pending_connect <- None;
              reply app (Message.In_reply { result = Ok () })
          | None -> ());
          (* Passive connections ride the listener backlog. *)
          if not c.accepted then
            match Hashtbl.find_opt t.listeners c.local_port with
            | Some l ->
                if not (List.mem c.sock_id l.backlog) then begin
                  l.backlog <- l.backlog @ [ c.sock_id ];
                  deliver_accepts t l
                end
            | None -> ()
        end
      | Tcp.Ev_rx_ready | Tcp.Ev_peer_closed -> continue_recv t c
      | Tcp.Ev_tx_space -> continue_send t c
      | Tcp.Ev_reset -> begin
          (match c.pending_connect with
          | Some app ->
              c.pending_connect <- None;
              reply app (Message.In_reply { result = Error Errno.E_conn_refused })
          | None -> ());
          (match c.pending_recv with
          | Some io ->
              c.pending_recv <- None;
              reply io.app (Message.In_io_reply { result = Error Errno.E_conn_reset })
          | None -> ());
          (match c.pending_send with
          | Some io ->
              c.pending_send <- None;
              reply io.app (Message.In_io_reply { result = Error Errno.E_conn_reset })
          | None -> ());
          reap_conn t c
        end
      | Tcp.Ev_closed ->
          continue_recv t c;
          (* Gracefully closed but never-accepted connections stay
             in the backlog: accept still delivers them so the
             application can drain buffered data and see EOF. *)
          if c.accepted && c.app_closed then reap_conn t c)

let make_conn t ~sock_id ~remote_ip ~remote_port ~local_port ~active =
  let cfg = Tcp.default_config ~local_port ~remote_port ~isn:(Api.random 0x3FFF_FFFF) in
  let tcp =
    Host.open_conn t.host ~key:(remote_ip, remote_port, local_port) ~tkey:sock_id ~active cfg
      ~emit:(fun seg -> emit_packet t ~dst_ip:remote_ip (Wire.Tcp seg))
      ~notify:(conn_notify t sock_id)
  in
  let conn =
    {
      sock_id;
      tcp;
      remote_ip;
      remote_port;
      local_port;
      (* active opens are application-owned from birth; passive opens
         become owned when accept delivers them *)
      accepted = active;
      app_closed = false;
      reaped = false;
      pending_connect = None;
      pending_recv = None;
      pending_send = None;
    }
  in
  t.socks.(sock_id) <- S_tcp_conn conn;
  conn

(* ------------------------------------------------------------------ *)
(* Incoming frames                                                     *)
(* ------------------------------------------------------------------ *)

let handle_packet t (frame : Wire.frame) =
  if frame.Wire.packet.dst_ip = t.local_ip then begin
    match frame.Wire.packet.body with
    | Wire.Tcp seg ->
        let remote_ip = frame.Wire.packet.src_ip in
        if (not (Host.input t.host ~remote_ip seg)) && seg.Wire.syn then begin
          match Hashtbl.find_opt t.listeners seg.Wire.dst_port with
          | None -> ()
          | Some l when l.l_queued >= l.l_max ->
              (* Backlog full: refuse the SYN outright so the client
                 fails fast instead of parking in a queue the server
                 will never drain at storm rates. *)
              Metrics.incr t.ctrs.c_accept_refused;
              Option.iter
                (fun rst -> emit_packet t ~dst_ip:remote_ip (Wire.Tcp rst))
                (Host.reset_for seg)
          | Some l -> begin
              match alloc_sock t with
              | None -> ()
              | Some sock_id ->
                  l.l_queued <- l.l_queued + 1;
                  ignore
                    (make_conn t ~sock_id ~remote_ip ~remote_port:seg.Wire.src_port
                       ~local_port:seg.Wire.dst_port ~active:false);
                  ignore (Host.input t.host ~remote_ip seg)
            end
        end
    | Wire.Udp dgram -> begin
        match Hashtbl.find_opt t.udp_ports dgram.Wire.dst_port with
        | None -> ()
        | Some u -> begin
            if Queue.length u.u_rxq < 128 then
              Queue.push (frame.Wire.packet.src_ip, dgram.Wire.src_port, dgram.Wire.payload) u.u_rxq;
            match u.u_pending_recv with
            | Some (app, grant, maxlen) -> begin
                u.u_pending_recv <- None;
                match Queue.take_opt u.u_rxq with
                | None -> ()
                | Some (sip, sport, payload) -> (
                    let len = min (Bytes.length payload) maxlen in
                    let mem = Api.memory () in
                    Memory.blit_in mem ~addr:app_buf ~src:payload ~src_off:0 ~len;
                    match
                      Api.safecopy_to ~owner:app ~grant ~grant_off:0 ~local_addr:app_buf ~len
                    with
                    | Ok () ->
                        reply app (Message.In_recvfrom_reply { result = Ok (len, sip, sport) })
                    | Error _ -> ())
              end
            | None -> ()
          end
      end
  end

(* ------------------------------------------------------------------ *)
(* Driver lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let post_readv t =
  match (t.drv.ep, t.drv.rx_grant) with
  | Some ep, Some grant ->
      ignore (Api.asend ep (Message.Dl_readv { grant; len = frame_buf_size }))
  | _ -> ()

(*@recovery-begin*)
(* A (new or restarted) driver endpoint was published: reintegrate it.
   This mimics "the steps that are taken when the driver is first
   started" (Sec. 6.1). *)
let integrate_driver t ep =
  let fresh = match t.drv.ep with Some old -> not (Endpoint.equal old ep) | None -> true in
  if fresh then begin
    t.drv.generation <- t.drv.generation + 1;
    log "integrating driver %s as %s (generation %d)" t.driver_key (Endpoint.to_string ep)
      t.drv.generation;
    t.drv.ep <- Some ep;
    t.drv.up <- false;
    t.drv.tx_busy <- false;
    t.drv.tx_grant <- None;
    (match t.drv.rx_grant with Some g -> ignore (Api.grant_revoke g) | None -> ());
    t.drv.rx_grant <- None;
    (* Reinitialize: promiscuous mode, as the paper describes. *)
    ignore (Api.asend ep (Message.Dl_conf { mode = { Message.promisc = true; broadcast = true } }))
  end

let handle_conf_reply t ~src ~mac result =
  match t.drv.ep with
  | Some ep when Endpoint.equal ep src -> begin
      match result with
      | Ok () ->
          t.drv.mac <- mac;
          t.drv.up <- true;
          (* The driver answered its (re)configuration: reintegration
             is complete from our side. *)
          Resilix_obs.Span.mark_component t.spans t.driver_key Resilix_obs.Span.Reopen
            ~now:(Api.now ());
          let parked = Queue.length t.drv.tx_queue in
          if parked > 0 then
            Api.emit "inet"
              (Resilix_obs.Event.Retry
                 { component = t.driver_key; operation = "tx-flush"; count = parked });
          (match Api.grant_create ~for_:ep ~base:rx_frame_buf ~len:frame_buf_size ~access:Sysif.Read_write with
          | Ok g -> t.drv.rx_grant <- Some g
          | Error _ -> ());
          post_readv t;
          pump_tx t
      | Error _ -> log "driver %s failed to configure" t.driver_key
    end
  | Some _ | None -> ()

let handle_task_reply t ~src (flags : Message.dl_flags) read_len =
  match t.drv.ep with
  | Some ep when Endpoint.equal ep src ->
      if flags.Message.sent then begin
        (match t.drv.tx_grant with Some g -> ignore (Api.grant_revoke g) | None -> ());
        t.drv.tx_grant <- None;
        t.drv.tx_busy <- false;
        pump_tx t
      end;
      if flags.Message.received then begin
        if read_len <= 0 || read_len > frame_buf_size then
          (* Protocol violation: complain to RS (defect class 5). *)
          ignore
            (Api.sendrec Wellknown.rs
               (Message.Rs_complain
                  { name = t.driver_key; reason = "impossible receive length" }))
        else begin
          let mem = Api.memory () in
          let raw = Memory.read mem ~addr:rx_frame_buf ~len:read_len in
          (match Wire.decode raw with
          | Ok frame -> handle_packet t frame
          | Error e -> Metrics.incr (List.assoc e t.ctrs.c_rx_dropped) (* drop; TCP recovers *));
          post_readv t
        end
      end
  | Some _ | None -> ()

(*@recovery-end*)
(* ------------------------------------------------------------------ *)
(* Socket requests                                                     *)
(* ------------------------------------------------------------------ *)

let handle_request t ~src body =
  match body with
  | Message.In_socket { proto } -> begin
      match alloc_sock t with
      | None -> reply src (Message.In_socket_reply { result = Error Errno.E_nospace })
      | Some id ->
          (match proto with
          | Message.Tcp -> t.socks.(id) <- S_tcp_fresh
          | Message.Udp ->
              t.socks.(id) <-
                S_udp { u_port = 0; u_rxq = Queue.create (); u_pending_recv = None });
          reply src (Message.In_socket_reply { result = Ok id })
    end
  | Message.In_connect { sock; addr; port } -> begin
      match sock_of t sock with
      | S_tcp_fresh when t.drv.degraded ->
          ignore (addr, port);
          degraded_reject t src (Message.In_reply { result = Error Errno.E_degraded })
      | S_tcp_fresh ->
          let local_port = t.next_ephemeral in
          t.next_ephemeral <- t.next_ephemeral + 1;
          let conn = make_conn t ~sock_id:sock ~remote_ip:addr ~remote_port:port ~local_port ~active:true in
          conn.pending_connect <- Some src
      | _ -> reply src (Message.In_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_listen { sock; port; backlog } -> begin
      match sock_of t sock with
      | S_tcp_fresh ->
          let l =
            {
              l_port = port;
              l_max = max 1 backlog;
              backlog = [];
              l_queued = 0;
              pending_accepts = Queue.create ();
            }
          in
          t.socks.(sock) <- S_tcp_listen l;
          Hashtbl.replace t.listeners port l;
          reply src (Message.In_reply { result = Ok () })
      | S_udp u ->
          u.u_port <- port;
          Hashtbl.replace t.udp_ports port u;
          reply src (Message.In_reply { result = Ok () })
      | _ -> reply src (Message.In_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_accept { sock } -> begin
      match sock_of t sock with
      | S_tcp_listen l -> begin
          match l.backlog with
          | next :: rest ->
              l.backlog <- rest;
              l.l_queued <- l.l_queued - 1;
              (match sock_of t next with
              | S_tcp_conn c -> c.accepted <- true
              | _ -> ());
              reply src (Message.In_accept_reply { result = Ok next })
          | [] -> Queue.push src l.pending_accepts
        end
      | _ -> reply src (Message.In_accept_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_send { sock; grant; len } -> begin
      match sock_of t sock with
      | S_tcp_conn _ when len < 0 -> reply src (Message.In_io_reply { result = Error Errno.E_inval })
      | S_tcp_conn conn when conn.pending_send = None ->
          conn.pending_send <- Some { app = src; grant; total = len; progress = 0 };
          continue_send t conn
      | S_tcp_conn _ -> reply src (Message.In_io_reply { result = Error Errno.E_busy })
      | _ -> reply src (Message.In_io_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_recv { sock; grant; len } -> begin
      match sock_of t sock with
      | S_tcp_conn _ when len < 0 -> reply src (Message.In_io_reply { result = Error Errno.E_inval })
      | S_tcp_conn conn when conn.pending_recv = None ->
          conn.pending_recv <- Some { app = src; grant; total = len; progress = 0 };
          continue_recv t conn
      | S_tcp_conn _ -> reply src (Message.In_io_reply { result = Error Errno.E_busy })
      | _ -> reply src (Message.In_io_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_sendto { sock; addr; port; grant; len } -> begin
      match sock_of t sock with
      | S_udp _ when t.drv.degraded ->
          degraded_reject t src (Message.In_io_reply { result = Error Errno.E_degraded })
      | S_udp u when len >= 0 && len <= Wire.max_payload -> begin
          match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:app_buf ~len with
          | Error e -> reply src (Message.In_io_reply { result = Error e })
          | Ok () ->
              let mem = Api.memory () in
              let payload = Memory.read mem ~addr:app_buf ~len in
              let src_port = if u.u_port <> 0 then u.u_port else 1024 in
              emit_packet t ~dst_ip:addr (Wire.Udp { Wire.src_port; dst_port = port; payload });
              reply src (Message.In_io_reply { result = Ok len })
        end
      | S_udp _ -> reply src (Message.In_io_reply { result = Error Errno.E_inval })
      | _ -> reply src (Message.In_io_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_recvfrom { sock; grant; len } -> begin
      match sock_of t sock with
      | S_udp _ when len < 0 ->
          reply src (Message.In_recvfrom_reply { result = Error Errno.E_inval })
      | S_udp u -> begin
          match Queue.take_opt u.u_rxq with
          | Some (sip, sport, payload) -> begin
              let n = min (Bytes.length payload) len in
              let mem = Api.memory () in
              Memory.blit_in mem ~addr:app_buf ~src:payload ~src_off:0 ~len:n;
              match Api.safecopy_to ~owner:src ~grant ~grant_off:0 ~local_addr:app_buf ~len:n with
              | Ok () -> reply src (Message.In_recvfrom_reply { result = Ok (n, sip, sport) })
              | Error _ -> ()
            end
          | None -> u.u_pending_recv <- Some (src, grant, len)
        end
      | _ -> reply src (Message.In_recvfrom_reply { result = Error Errno.E_bad_fd })
    end
  | Message.In_close { sock } -> begin
      (match sock_of t sock with
      | S_tcp_conn conn ->
          conn.app_closed <- true;
          Tcp.close conn.tcp ~now:(Api.now ());
          (* If TCP is already finished (reset, or close completed
             synchronously) the slot can be reclaimed now; otherwise
             Ev_closed reaps it when the FIN handshake completes. *)
          if Tcp.is_closed conn.tcp then
            if conn.reaped then free_sock t conn.sock_id else reap_conn t conn
      | S_tcp_listen l -> begin
          Hashtbl.remove t.listeners l.l_port;
          (* Parked accept callers can never be served now. *)
          Queue.iter
            (fun app -> reply app (Message.In_accept_reply { result = Error Errno.E_again }))
            l.pending_accepts;
          Queue.clear l.pending_accepts;
          free_sock t sock
        end
      | S_udp u -> begin
          Hashtbl.remove t.udp_ports u.u_port;
          free_sock t sock
        end
      | S_tcp_fresh -> free_sock t sock
      | S_free -> ());
      reply src (Message.In_reply { result = Ok () })
    end
  | _ -> reply src (Message.In_reply { result = Error Errno.E_inval })

(* ------------------------------------------------------------------ *)
(* Data-store subscription                                             *)
(* ------------------------------------------------------------------ *)

(*@recovery-begin*)
let ds_update t key value =
  match value with
  | Message.V_endpoint ep when String.equal key t.driver_key -> integrate_driver t ep
  | Message.V_int v when String.equal key ("degraded." ^ t.driver_key) ->
      t.drv.degraded <- v <> 0;
      if t.drv.degraded then log "driver %s degraded: refusing new work" t.driver_key
      else log "driver %s degradation cleared" t.driver_key
  | _ -> ()

(*@recovery-end*)
let body t () =
  (* Subscribe to Ethernet driver updates (Sec. 5.3: "the network
     server subscribes ... by registering the expression 'eth.*'"). *)
  ignore (Api.ds_subscribe "eth.*");
  (* ... and to breaker-driven degradation markers (policy v2). *)
  ignore (Api.ds_subscribe "degraded.*");
  (* The driver may already be up. *)
  Option.iter (integrate_driver t) (Api.ds_retrieve_endpoint t.driver_key);
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Error _ -> ()
    | Ok (Sysif.Rx_notify { kind = Message.N_ds_update; _ }) -> Api.ds_check (ds_update t)
    | Ok (Sysif.Rx_notify { kind = Message.N_alarm; _ }) -> Host.fire t.host
    | Ok (Sysif.Rx_notify _) -> ()
    | Ok (Sysif.Rx_msg { src; body }) -> begin
        match body with
        | Message.Dl_conf_reply { mac; result } -> handle_conf_reply t ~src ~mac result
        | Message.Dl_task_reply { flags; read_len } -> handle_task_reply t ~src flags read_len
        | other -> handle_request t ~src other
      end);
    loop ()
  in
  loop ()
