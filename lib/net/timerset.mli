(** Multiplexes many logical timers onto one deadline source.

    The network server owns a single kernel alarm and the remote peer
    owns a single engine event; each TCP connection needs its own
    retransmission timer.  This keeps the earliest deadline per
    integer key.

    Scales to C10K: {!Resilix_sim.Heap} ordered by (deadline, key)
    with lazy deletion, so [set], [cancel] and each expiry are
    O(log n) amortized — re-arming a timer leaves the stale heap entry
    behind and invalidates it with a per-key generation, which
    {!next_deadline}/{!take_due} skip as they surface. *)

type t
(** A timer set. *)

val create : unit -> t
(** Empty set. *)

val set : t -> key:int -> deadline:int -> unit
(** Arm (or re-arm) the timer for [key]. *)

val cancel : t -> key:int -> unit
(** Disarm [key]'s timer. *)

val next_deadline : t -> int option
(** Earliest armed deadline. *)

val take_due : t -> now:int -> int list
(** Remove and return every key whose deadline has passed, in
    ascending key order (deterministic for reproducibility). *)

val armed : t -> int
(** Number of currently armed timers. *)
