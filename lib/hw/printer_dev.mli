(** Printer model (character device).

    Consumes bytes from a 4 KB FIFO at 50 KB/s and records everything
    it has "printed".  The lpd example uses this to show Sec. 6.3's
    point: a recovery-aware spooler can reissue a failed job after a
    driver crash, at the cost of possibly duplicated output — which
    the recorded stream makes observable.

    Register map:
    {v
      0  ID      RO  0x9817
      1  CTRL    RW  bit0 online; 0x10 reset
      2  DATA    W   one byte (low 8 bits) into the FIFO
      3  STATUS  RO  bit0 ready (FIFO has room)
      4  ISR     R/ack  0x1 fifo drained, 0x8 err
      5  LEVEL   RO  bytes currently queued in the FIFO
    v}

    Junk CTRL bits, a write to a full FIFO or to a read-only register
    set ERR.
*)

type t
(** A printer. *)

val ports : int
(** Size of the claimed port window (6). *)

val create : kernel:Resilix_kernel.Kernel.t -> bus:Bus.t -> base:int -> irq:int -> unit -> t
(** Claim [base..base+ports-1]. *)

val printed : t -> string
(** Everything the printer has physically printed so far. *)
