(** DP8390-style Ethernet controller model (programmed I/O).

    This is the NIC targeted by the fault-injection campaign
    (Sec. 7.2: "targeted the DP8390 Ethernet driver").  Unlike the
    RTL8139 model it moves frame data through a data port one 32-bit
    word at a time ("remote DMA"), which gives its driver long,
    loop-heavy transfer code — a rich target for binary mutation.
    Registers 0-3 and 8-9 are the shared {!Nic} core's.

    Register map:
    {v
      0  ID      RO  0x8390
      1  CMD     RW  0x10 reset; 0x04 RX enable; 0x08 TX enable
      2  CONFIG  RW  bit0 promiscuous
      3  ISR     R/ack  0x1 RX_OK, 0x4 TX_OK, 0x8 ERR
      4  DATA    RW  write: next TX word into the staging buffer;
                     read: next word of the current RX frame
      5  TXGO    W   value = frame length; transmits the staged bytes
      6  RXLEN   RO  length of the head RX frame (0 = none)
      7  RXDONE  W   pop the current RX frame
      8  MACLO   RO  9 MACHI RO
    v}

    RX_OK is raised when a frame arrives at an empty queue and again
    on each RXDONE that leaves frames queued. *)

val ports : int
(** Size of the claimed port window (10). *)

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
