(** RTL8139-style Ethernet controller model (DMA-based).

    This is the NIC used for the Fig. 7 experiment (wget with repeated
    driver kills).  The driver programs it through I/O ports and DMA
    buffers mapped through the IOMMU.  Registers 0-3 and 10-11 are the
    shared {!Nic} core's.

    Register map (32-bit registers, offsets from the claimed base):
    {v
      0  ID      RO  0x8139
      1  CMD     RW  0x10 = software reset; 0x04 = RX enable; 0x08 = TX enable
      2  CONFIG  RW  bit0 = promiscuous mode
      3  ISR     R/ack  0x1 RX_OK, 0x4 TX_OK, 0x8 ERR; writing acks those bits
      4  TXH     W   DMA handle of the transmit buffer
      5  TXLEN   W   frame length in bytes
      6  TXGO    W   any write starts transmission
      7  RXH     W   DMA handle of the receive buffer
      8  RXCAP   W   receive buffer capacity
      9  RXLEN   RO  length of the frame most recently delivered
      10 MACLO   RO  low 32 bits of the MAC
      11 MACHI   RO  high 16 bits of the MAC
    v}

    Receive: the card DMAs the head of its queue into the RXH buffer
    when RX is enabled, RXH is set and the previous frame's RX_OK has
    been acknowledged; it tries again on each of those events.

    Fault realism: out-of-spec programming (zero/oversized TX length,
    bad DMA handles, junk CMD bits) sets ERR and may wedge the card;
    a wedged card ignores software resets, and only {!Nic.bios_reset}
    clears it (see {!Nic}). *)

val ports : int
(** Size of the claimed port window (12). *)

val create :
  kernel:Resilix_kernel.Kernel.t ->
  bus:Bus.t ->
  base:int ->
  irq:int ->
  link:Link.t ->
  side:Link.side ->
  mac:int ->
  rng:Resilix_sim.Rng.t ->
  ?wedge_prob:float ->
  unit ->
  Nic.t
(** Claim [base..base+ports-1] on the bus and attach to the link. *)
