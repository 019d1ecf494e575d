(** The Ethernet controller core shared by the two NIC models
    ({!Nic8139}, {!Nic8390}).

    It owns what the two cards have in common:
    {v
      0  ID      RO  the device's ID
      1  CMD     RW  0x10 = software reset; 0x04 = RX enable; 0x08 = TX enable
      2  CONFIG  RW  bit0 = promiscuous mode
      3  ISR     R/ack  0x1 RX_OK, 0x4 TX_OK, 0x8 ERR; writing acks those bits
      MACLO / MACHI  RO  low 32 / high 16 bits of the MAC, at a device-chosen offset
    v}
    plus the MAC filter (own MAC, broadcast, or anything when
    promiscuous), a receive queue bounded at 64 frames (a frame that
    finds it full is dropped and counted in [hw.nic<id>.rx_overflow],
    [<id>] the ID register in hex), the 150 ms
    reset window (CMD reads 0x10 and programming is ignored), transmit
    timing at 12 bytes/us (~100 Mbit) and wedging.

    Fault realism: out-of-spec programming sets ERR and, with
    probability [wedge_prob], wedges the card — it then reads
    0xFFFFFFFF everywhere and ignores every write, software reset
    included, until the out-of-band {!bios_reset} (the "low-level BIOS
    reset" a few cards needed in the paper's Sec. 7.2). *)

type t
(** A NIC. *)

type device = {
  id : int;  (** value of the ID register *)
  mac_reg : int;  (** offset of MACLO; MACHI is the register after it *)
  read : t -> int -> int;  (** the device's own registers (0xFFFFFFFF for none) *)
  write : t -> int -> int -> unit;  (** likewise; call {!fail} for none *)
  reset : unit -> unit;  (** clear the device's data path (software or BIOS reset) *)
  queued : t -> unit;  (** a frame has just joined the receive queue *)
  rx_ready : t -> unit;  (** RX was enabled, or RX_OK was acknowledged *)
}
(** The device-specific half: its register map beyond the shared
    registers and its data path. *)

val create :
  kernel:Resilix_kernel.Kernel.t ->
  bus:Bus.t ->
  base:int ->
  ports:int ->
  irq:int ->
  link:Link.t ->
  side:Link.side ->
  mac:int ->
  rng:Resilix_sim.Rng.t ->
  ?wedge_prob:float ->
  device ->
  t
(** Claim [base..base+ports-1] on the bus and attach to [side] of the
    link.  [wedge_prob] defaults to 0. *)

val kernel : t -> Resilix_kernel.Kernel.t

val max_frame : int
(** Largest frame the card transmits (2048 bytes). *)

val fail : t -> unit
(** Out-of-spec programming: set ERR, then draw the wedge. *)

val rx_queue : t -> bytes Queue.t
(** Frames accepted by the filter and not yet consumed. *)

val rx_open : t -> bool
(** Not wedged, not resetting, and RX enabled. *)

val rx_signalled : t -> bool
(** Whether RX_OK is set (raised and not yet acknowledged). *)

val signal_rx : t -> unit
(** Set RX_OK, then raise the IRQ. *)

val tx_ready : t -> int -> bool
(** Whether a transmit of that many bytes is in spec now: TX enabled,
    not resetting, not already transmitting, length in
    [1..max_frame]. *)

val transmit : t -> bytes -> unit
(** Put the frame on the wire after its transmit time, then set
    TX_OK and raise the IRQ (unless the card wedged meanwhile). *)

val wedged : t -> bool
(** Whether the card is wedged (unrecoverable by its driver). *)

val bios_reset : t -> unit
(** Out-of-band full reset; clears the wedge. *)
