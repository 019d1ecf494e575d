(** CD burner driver (character device).

    Sec. 6.3's example of an unrecoverable failure: if this driver
    dies during a burn session the laser stops, the burn-gap watchdog
    in the device ruins the disc, and the burning application must
    report the failure to the user — no amount of restarting helps.

    Protocol: ioctl ["burn_start"] opens a session, each write burns
    one block, ioctl ["burn_finish"] closes it. *)

val program : unit -> unit
(** The driver binary; args are [base; irq] as decimal strings. *)

val memory_kb : int
(** Address-space size the driver needs. *)
