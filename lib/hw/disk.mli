(** SATA-style disk controller model (DMA-based).

    Backs the Fig. 8 experiment (dd with repeated disk-driver kills).

    Register map:
    {v
      0  ID      RO  0x5A7A
      1  LBA     W   first sector of the transfer
      2  COUNT   W   sectors to transfer (1..256)
      3  DMAH    W   DMA handle of the data buffer
      4  CMD     W   0x20 read, 0x30 write, 0xE7 flush, 0x10 reset
      5  STATUS  RO  bit0 busy, bit3 error
      6  ISR     R/ack  0x1 done, 0x8 error; writing acks
    v}

    Out-of-spec programming (a bad range, an unknown command, a
    command while busy, a write to a read-only register) sets ERR.

    Timing: a transfer takes [seek_us] plus sectors*512/[rate].  The
    default 40 bytes/us gives about the 33 MB/s the paper's SATA disk
    sustained.  A reset keeps the controller busy for 600 ms —
    re-initialization latency is what makes a disk driver crash
    expensive (Fig. 8). *)

type t
(** A disk controller. *)

val ports : int
(** Size of the claimed port window (7). *)

val create :
  kernel:Resilix_kernel.Kernel.t ->
  bus:Bus.t ->
  base:int ->
  irq:int ->
  store:Blockstore.t ->
  ?rate_bytes_per_us:int ->
  ?seek_us:int ->
  unit ->
  t
(** Create and claim [base..base+ports-1].  Defaults: 40 bytes/us,
    100 us seek. *)
