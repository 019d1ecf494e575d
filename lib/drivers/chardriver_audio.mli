(** Audio driver (character device).

    Buffers sample data from applications and feeds the codec's FIFO
    from the low-water interrupt.  Driver state (the buffered samples)
    is deliberately *not* backed up in the data store: as Sec. 6.3
    explains, character-stream recovery is impossible in general, so a
    crash loses whatever was in flight and a recovery-aware player
    just hears a hiccup. *)

val program : unit -> unit
(** The driver binary; args are [base; irq] as decimal strings. *)

val memory_kb : int
(** Address-space size the driver needs. *)
