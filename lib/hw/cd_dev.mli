(** CD burner model (character device).

    The paper's example of a failure that {e cannot} be masked
    (Sec. 6.3): if the driver dies mid-burn, the laser stops and the
    disc is ruined — the application must report the error to the
    user.  The model enforces this with a burn-gap rule: once a
    session is open, more than [gap_timeout] without a completed block
    ruins the disc.

    Register map:
    {v
      0  ID      RO  0xCDB0
      1  CMD     W   0x01 start session, 0x02 finish session, 0x10 reset
      2  DMAH    W   DMA handle of the block to burn
      3  LEN     W   block length
      4  GO      W   burn the block
      5  STATUS  RO  bit0 session open, bit1 busy, bit3 err
      6  ISR     R/ack  0x1 block done, 0x8 err
    v}

    Out-of-order session commands, a burn outside a session, a bad
    block length or DMA handle, and writes to read-only registers set
    ERR.  Blocks burn at 8 bytes/us.
*)

type t
(** A burner. *)

type disc_state = Blank | In_session | Complete | Ruined

val ports : int
(** Size of the claimed port window (7). *)

val create :
  kernel:Resilix_kernel.Kernel.t ->
  bus:Bus.t ->
  base:int ->
  irq:int ->
  ?gap_timeout:int ->
  unit ->
  t
(** Claim [base..base+ports-1].  Default gap timeout 300 ms. *)

val disc : t -> disc_state
(** Current state of the disc in the tray. *)

val burned : t -> string
(** Bytes successfully burned so far. *)
