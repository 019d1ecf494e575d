(** Deterministic HTTP-ish load generator: the client side of the C10K
    storm workload.

    The generator runs on the simulated remote peer and opens flows
    into the machine under test through {!Resilix_net.Peer.open_flow},
    so any number of concurrent connections share one engine timer and
    stay deterministic.  Every request asks the in-machine
    {!Resilix_apps.Httpd} server for [gen:<seed>:<size>] content and
    validates the XXH64 digest of what comes back, so corruption anywhere
    on the path (NIC, driver restart, TCP reassembly) is detected
    end-to-end.

    Everything is driven by engine events and a seed-derived RNG: no
    wall-clock, no ambient randomness — the same seed yields the same
    storm, byte for byte. *)

type config = {
  requests : int;  (** total requests to issue *)
  concurrency : int;  (** cap on simultaneously open flows *)
  arrival_interval : int;  (** mean us between request starts (jittered x0.5–1.5) *)
  slow_fraction : float;  (** fraction of clients that dribble the request line *)
  size_mix : (int * int) array;  (** (weight, response bytes) request mix *)
}
(** What varies between storms.  Fixed for every storm: a burst of 8
    simultaneous arrivals every 16th arrival, slow clients sending one
    request byte per 20 ms, server port 80, a 20 s deadline per
    request, 2 retries after a reset at a jittered ~250 ms backoff, and
    100 ms goodput bins. *)

val default_config : config
(** 100 requests, concurrency 64, 2 ms mean arrivals, 5% slow
    clients, sizes 2K/16K/128K weighted 6:3:1. *)

type stats = {
  mutable issued : int;  (** requests actually started (not parked) *)
  mutable attempts : int;  (** connection attempts, retries included *)
  mutable completed : int;  (** responses received whole, digest verified *)
  mutable refused : int;  (** RST before the handshake finished (backlog overflow) *)
  mutable resets : int;  (** reset after established *)
  mutable timeouts : int;  (** requests aborted at the deadline *)
  mutable digest_mismatches : int;  (** complete-looking responses with wrong bytes *)
  mutable failed : int;  (** requests that exhausted their retry budget *)
  mutable deferred : int;  (** arrivals parked at the concurrency cap *)
  mutable bytes_in : int;  (** response bytes received *)
  mutable in_flight : int;  (** flows currently open *)
}

type t

val create :
  engine:Resilix_sim.Engine.t ->
  seed:int ->
  peer:Resilix_net.Peer.t ->
  metrics:Resilix_obs.Metrics.t ->
  config:config ->
  dst_ip:int ->
  dst_mac:int ->
  unit ->
  t
(** [metrics] receives the per-request latency histograms
    ([load.latency_us] issue-to-verified and [load.connect_us]
    SYN-to-established). *)

val start : t -> unit
(** Schedule the whole arrival plan onto the engine; run the engine to
    let the storm play out. *)

val stats : t -> stats

val finished : t -> bool
(** Every request has resolved: completed, mismatched, timed out, or
    failed permanently. *)

val goodput_bins : t -> int array
(** Bytes received per [bin_us] window of virtual time, from t=0 to
    the last bin that saw traffic — the timeline that shows the
    mid-storm outage dip. *)

val bin_us : int
(** Width of a goodput bin, us. *)

