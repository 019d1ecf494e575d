module Engine = Resilix_sim.Engine
module Rng = Resilix_sim.Rng
module Peer = Resilix_net.Peer
module Tcp = Resilix_net.Tcp
module Filegen = Resilix_net.Filegen
module Metrics = Resilix_obs.Metrics
module Xxh64 = Resilix_checksum.Xxh64

type config = {
  requests : int;
  concurrency : int;
  arrival_interval : int;
  slow_fraction : float;
  size_mix : (int * int) array;
}

let default_config =
  {
    requests = 100;
    concurrency = 64;
    arrival_interval = 2_000;
    slow_fraction = 0.05;
    size_mix = [| (6, 2_048); (3, 16_384); (1, 131_072) |];
  }

(* Every 16th arrival opens a burst of 8 simultaneous starts. *)
let burst_every = 16
let burst_size = 8

(* us between a slow client's request bytes *)
let slow_byte_delay = 20_000
let server_port = 80

(* us from a request's start to its forced abort *)
let request_timeout = 20_000_000

(* Re-connect budget after a reset, and the mean us before a retry. *)
let retries = 2
let retry_backoff = 250_000
let bin_us = 100_000

type stats = {
  mutable issued : int;
  mutable attempts : int;
  mutable completed : int;
  mutable refused : int;
  mutable resets : int;
  mutable timeouts : int;
  mutable digest_mismatches : int;
  mutable failed : int;
  mutable deferred : int;
  mutable bytes_in : int;
  mutable in_flight : int;
}

let fresh_stats () =
  {
    issued = 0;
    attempts = 0;
    completed = 0;
    refused = 0;
    resets = 0;
    timeouts = 0;
    digest_mismatches = 0;
    failed = 0;
    deferred = 0;
    bytes_in = 0;
    in_flight = 0;
  }

type req = {
  size : int;
  seed : int;
  expected_digest : string;
  slow : bool;
  mutable attempt : int;
  mutable t0 : int; (* virtual time of the first connection attempt *)
  mutable flow : Peer.flow option;
  mutable established : bool;
  mutable received : int;
  mutable digest : Xxh64.t;
  mutable sent : int; (* request-line bytes pushed (slow path) *)
  mutable resolved : bool; (* counted as completed / failed / timed out *)
  mutable timeout_h : Engine.handle option;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  peer : Peer.t;
  cfg : config;
  dst_ip : int;
  dst_mac : int;
  content_seed : int;
  stats : stats;
  pending : req Queue.t; (* arrived while at the concurrency cap *)
  mutable goodput : int array; (* bytes received per bin_us bin *)
  mutable goodput_hi : int; (* highest bin index touched *)
  mutable outstanding : int; (* requests not yet resolved *)
  mutable launched_all : bool;
  lat_hist : Metrics.histogram;
  connect_hist : Metrics.histogram;
}

let create ~engine ~seed ~peer ~metrics ~config ~dst_ip ~dst_mac () =
  {
    engine;
    rng = Rng.create ~seed:(Rng.derive ~seed ~index:0x10ad);
    peer;
    cfg = config;
    dst_ip;
    dst_mac;
    content_seed = Rng.derive ~seed ~index:0xf11e;
    stats = fresh_stats ();
    pending = Queue.create ();
    goodput = Array.make 64 0;
    goodput_hi = 0;
    outstanding = 0;
    launched_all = false;
    lat_hist = Metrics.histogram metrics "load.latency_us";
    connect_hist = Metrics.histogram metrics "load.connect_us";
  }

let stats t = t.stats

let goodput_bins t =
  Array.sub t.goodput 0 (min (Array.length t.goodput) (t.goodput_hi + 1))

let finished t = t.launched_all && t.outstanding = 0

let record_bytes t n =
  t.stats.bytes_in <- t.stats.bytes_in + n;
  let idx = Engine.now t.engine / bin_us in
  let len = Array.length t.goodput in
  if idx >= len then begin
    let bigger = Array.make (max (2 * len) (idx + 1)) 0 in
    Array.blit t.goodput 0 bigger 0 len;
    t.goodput <- bigger
  end;
  t.goodput.(idx) <- t.goodput.(idx) + n;
  if idx > t.goodput_hi then t.goodput_hi <- idx

let pick_size t =
  let total = Array.fold_left (fun acc (w, _) -> acc + w) 0 t.cfg.size_mix in
  let roll = Rng.int t.rng (max 1 total) in
  let rec go i acc =
    if i >= Array.length t.cfg.size_mix - 1 then snd t.cfg.size_mix.(i)
    else begin
      let w, sz = t.cfg.size_mix.(i) in
      if roll < acc + w then sz else go (i + 1) (acc + w)
    end
  in
  go 0 0

(* A request resolves exactly once: success, digest mismatch, terminal
   failure, or timeout. *)
let resolve t req outcome =
  if not req.resolved then begin
    req.resolved <- true;
    t.outstanding <- t.outstanding - 1;
    (match req.timeout_h with
    | Some h ->
        Engine.cancel h;
        req.timeout_h <- None
    | None -> ());
    match outcome with
    | `Completed ->
        t.stats.completed <- t.stats.completed + 1;
        Metrics.observe t.lat_hist (Engine.now t.engine - req.t0)
    | `Mismatch -> t.stats.digest_mismatches <- t.stats.digest_mismatches + 1
    | `Failed -> t.stats.failed <- t.stats.failed + 1
    | `Timeout -> t.stats.timeouts <- t.stats.timeouts + 1
  end

let request_line req = Printf.sprintf "GET gen:%d:%d\n" req.seed req.size

(* Slow clients dribble the request line one byte at a time — each
   byte [slow_byte_delay] apart — pinning a server worker for the
   duration (the classic slow-client pressure on a worker pool). *)
let rec send_slowly t req =
  match req.flow with
  | None -> ()
  | Some flow when req.resolved -> ignore flow
  | Some flow ->
      let line = request_line req in
      if req.sent < String.length line then begin
        let b = Bytes.make 1 line.[req.sent] in
        ignore (Tcp.send (Peer.flow_tcp flow) ~now:(Engine.now t.engine) b ~off:0 ~len:1);
        req.sent <- req.sent + 1;
        if req.sent < String.length line then
          ignore
            (Engine.schedule t.engine ~after:slow_byte_delay (fun () -> send_slowly t req))
      end

let send_request t req flow =
  if req.slow then send_slowly t req
  else begin
    let line = Bytes.of_string (request_line req) in
    ignore
      (Tcp.send (Peer.flow_tcp flow) ~now:(Engine.now t.engine) line ~off:0
         ~len:(Bytes.length line))
  end

let rec drain t req flow =
  let data = Tcp.recv (Peer.flow_tcp flow) ~max:65536 in
  let n = Bytes.length data in
  if n > 0 then begin
    req.received <- req.received + n;
    Xxh64.update req.digest data ~off:0 ~len:n;
    record_bytes t n;
    drain t req flow
  end

let rec launch t req =
  req.attempt <- req.attempt + 1;
  t.stats.attempts <- t.stats.attempts + 1;
  t.stats.in_flight <- t.stats.in_flight + 1;
  req.established <- false;
  req.received <- 0;
  req.digest <- Xxh64.init ();
  req.sent <- 0;
  let attempt_start = Engine.now t.engine in
  let flow =
    Peer.open_flow t.peer ~dst_ip:t.dst_ip ~dst_mac:t.dst_mac ~dst_port:server_port
      ~notify:(fun flow ev -> on_event t req flow ev attempt_start)
      ()
  in
  req.flow <- Some flow

and on_event t req flow ev attempt_start =
  match ev with
  | Tcp.Ev_established ->
      req.established <- true;
      Metrics.observe t.connect_hist (Engine.now t.engine - attempt_start);
      send_request t req flow
  | Tcp.Ev_rx_ready -> drain t req flow
  | Tcp.Ev_tx_space -> ()
  | Tcp.Ev_peer_closed ->
      drain t req flow;
      if not req.resolved then begin
        if req.received = req.size && String.equal (Xxh64.to_hex (Xxh64.digest req.digest)) req.expected_digest then
          resolve t req `Completed
        else resolve t req `Mismatch;
        Peer.flow_close t.peer flow
      end
  | Tcp.Ev_reset ->
      if not req.resolved then begin
        let refused = not req.established in
        if refused then t.stats.refused <- t.stats.refused + 1
        else t.stats.resets <- t.stats.resets + 1;
        retry_or_fail t req ~refused
      end
  | Tcp.Ev_closed -> flow_ended t req

and retry_or_fail t req ~refused =
  (* A refused SYN (backlog overflow or degraded fast-fail) never
     consumes the retry budget: the client keeps knocking until its
     absolute deadline, like a real browser would.  Only resets after
     establishment — a half-served request — burn [retries].  The
     backoff is jittered so a herd of refused clients doesn't return
     in lockstep and re-overflow the backlog it just bounced off. *)
  if refused || req.attempt <= retries then begin
    let jitter = Rng.int_in t.rng ~min:0 ~max:retry_backoff in
    ignore (Engine.schedule t.engine ~after:((retry_backoff / 2) + jitter) (fun () ->
        if not req.resolved then launch t req))
  end
  else resolve t req `Failed

and flow_ended t req =
  (* Terminal for this attempt: give the slot back and start a parked
     arrival if one is waiting. *)
  if req.flow <> None then begin
    req.flow <- None;
    t.stats.in_flight <- t.stats.in_flight - 1;
    match Queue.take_opt t.pending with
    | Some next -> start_request t next
    | None -> ()
  end

and start_request t req =
  if t.stats.in_flight >= t.cfg.concurrency then begin
    t.stats.deferred <- t.stats.deferred + 1;
    Queue.push req t.pending
  end
  else begin
    t.stats.issued <- t.stats.issued + 1;
    req.t0 <- Engine.now t.engine;
    req.timeout_h <-
      Some
        (Engine.schedule t.engine ~after:request_timeout (fun () ->
             req.timeout_h <- None;
             if not req.resolved then begin
               resolve t req `Timeout;
               match req.flow with Some f -> Peer.flow_abort f | None -> ()
             end));
    launch t req
  end

let start t =
  let cfg = t.cfg in
  t.outstanding <- cfg.requests;
  (* Precompute the deterministic arrival schedule: jittered
     inter-arrival gaps, with every [burst_every]-th arrival opening a
     window of [burst_size] simultaneous starts. *)
  let tcur = ref (Engine.now t.engine + 1) in
  let in_burst = ref 0 in
  for k = 0 to cfg.requests - 1 do
    if !in_burst > 0 then decr in_burst
    else begin
      let iv = max 1 cfg.arrival_interval in
      tcur := !tcur + Rng.int_in t.rng ~min:(max 1 (iv / 2)) ~max:(iv + (iv / 2));
      if k > 0 && k mod burst_every = 0 then in_burst := burst_size
    end;
    let size = pick_size t in
    let seed = Rng.derive ~seed:t.content_seed ~index:k in
    let req =
      {
        size;
        seed;
        expected_digest = Filegen.digest ~seed ~size;
        slow = Rng.bool t.rng cfg.slow_fraction;
        attempt = 0;
        t0 = 0;
        flow = None;
        established = false;
        received = 0;
        digest = Xxh64.init ();
        sent = 0;
        resolved = false;
        timeout_h = None;
      }
    in
    ignore (Engine.schedule_at t.engine ~at:!tcur (fun () -> start_request t req))
  done;
  t.launched_all <- true
