(** Generic DMA disk driver for the SATA-style controller — used for
    both the SATA disk (Fig. 8's repeatedly-killed driver) and the
    floppy instance (same controller model at a different base/speed).

    The driver is stateless (Sec. 6.2): block I/O is idempotent, so
    after a crash the file server simply reissues pending requests to
    the fresh instance; nothing needs the data store. *)

val program : unit -> unit
(** The driver binary; args are [base; irq] as decimal strings. *)

val image_info : base:int -> int * int
(** [(origin, insn_count)] of the loaded code image. *)

val memory_kb : int
(** Address-space size the driver needs (includes a 64 KB bounce
    buffer). *)

