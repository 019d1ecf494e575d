(** A point-to-point network link with bandwidth, latency, loss and
    corruption — the "Internet" between the simulated machine's NIC
    and the remote peer that serves files in the wget experiment. *)

type t
(** A full-duplex link. *)

type side = A | B
(** The two attachment points. *)

val create :
  engine:Resilix_sim.Engine.t ->
  rng:Resilix_sim.Rng.t ->
  ?latency:int ->
  ?bytes_per_us:int ->
  ?drop_prob:float ->
  ?corrupt_prob:float ->
  unit ->
  t
(** Defaults: 200 us one-way latency, 100 bytes/us (~100 MB/s raw so
    the NIC, not the wire, is the bottleneck), no loss, no
    corruption. *)

val attach : t -> side -> (bytes -> unit) -> unit
(** Set the frame-delivery callback for one side. *)

val send : t -> side -> bytes -> unit
(** Transmit a frame from [side] to the opposite side.  The frame is
    delivered after serialization + propagation delay, possibly
    dropped or corrupted per the link's probabilities.  Frames sent
    while the transmitter is busy queue behind it (FIFO). *)

val frames_dropped : t -> int
(** Frames the link dropped. *)
