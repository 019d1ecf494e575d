(** CRC-32 (IEEE 802.3 polynomial), table-driven.

    Used by the simulated TCP as its segment checksum, and by device
    models to detect frame corruption on the link. *)

type t = int
(** A running CRC value. *)

val start : t
(** Initial value for a fresh computation. *)

val update : t -> bytes -> off:int -> len:int -> t
(** Fold [len] bytes of [b] at [off] into the running value.
    @raise Invalid_argument when the range is outside [b]. *)

val update_string : t -> string -> t
(** Fold a whole string. *)

val finish : t -> int
(** Final 32-bit CRC. *)

val string : string -> int
(** One-shot CRC of a string. *)
