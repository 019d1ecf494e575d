(** Virtual time for the discrete-event simulation.

    Time is measured in integer microseconds since the start of the
    simulation.  Using integers keeps every run exactly reproducible:
    two events scheduled at the same instant are ordered by their
    scheduling sequence number, never by floating-point noise. *)

type t = int
(** A point in (or span of) virtual time, in microseconds. *)

val zero : t
(** The simulation epoch. *)

val usec : int -> t
(** [usec n] is [n] microseconds. *)

val msec : int -> t
(** [msec n] is [n] milliseconds. *)

val add : t -> t -> t
(** Addition of durations / offsets. *)

val compare : t -> t -> int
(** Total order on instants. *)

val pp : Format.formatter -> t -> unit
(** Prints a human-readable rendering, e.g. ["12.345678s"]. *)
