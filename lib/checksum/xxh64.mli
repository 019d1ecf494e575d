(** XXH64 with seed 0, streaming.

    The digest for checking bulk data: everything wget, dd and the
    load generator receive is hashed with it and compared against
    {!Resilix_net.Filegen.digest}.  It reads 32 bytes per step in four
    independent 64-bit lanes, so it runs at memory speed where the
    byte-serial {!Fnv} cannot; the check stays an exact 64-bit digest
    equality.  The result equals the reference [XXH64(data, len, 0)]
    (its low 32 bits are zstd's [--check] frame checksum). *)

type t
(** A streaming state.  [update] never allocates. *)

val init : unit -> t
(** A fresh state over the empty input. *)

val update : t -> bytes -> off:int -> len:int -> unit
(** Absorb [len] bytes of [b] at [off].
    @raise Invalid_argument when the range is outside [b]. *)

val update_string : t -> string -> unit
(** Absorb a whole string. *)

val digest : t -> int64
(** The hash of everything absorbed so far.  The state stays usable. *)

val string : string -> int64
(** One-shot hash of a string. *)

val to_hex : int64 -> string
(** 16-char lowercase hex rendering. *)
