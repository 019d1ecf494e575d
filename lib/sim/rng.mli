(** Deterministic pseudo-random number generator (splitmix64).

    Every source of randomness in the simulator flows from one of
    these, seeded explicitly, so that experiments are replayable. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a generator determined entirely by [seed]. *)

val split : t -> t
(** [split t] derives an independent generator and advances [t].
    Use to give each subsystem its own stream. *)

val derive : seed:int -> index:int -> int
(** [derive ~seed ~index] is the child seed for the [index]-th
    sub-stream of [seed] — a pure function of the pair, so the value
    is independent of how many siblings exist or in which order they
    are derived (unlike {!split}, which advances the parent).  Use it
    to give each trial of a campaign its own hermetic seed.
    [index] must be non-negative. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  [n] must be positive. *)

val int_in : t -> min:int -> max:int -> int
(** [int_in t ~min ~max] is uniform in [\[min, max\]] inclusive. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniformly chosen element of a non-empty array. *)
