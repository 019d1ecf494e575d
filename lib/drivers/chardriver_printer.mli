(** Printer driver (character device).

    A write request is one job chunk; the driver feeds it into the
    printer FIFO at device speed and replies only when everything has
    been handed to the hardware.  If the driver dies mid-job the
    spooler's request fails with [E_dead_src_dst]; a recovery-aware
    spooler (the lpd example) reissues the job — accepting the
    possibility of duplicated output, per Sec. 6.3. *)

val program : unit -> unit
(** The driver binary; args are [base; irq] as decimal strings. *)

val memory_kb : int
(** Address-space size the driver needs. *)
