(** FNV-1a 64-bit hash.

    A fast non-cryptographic digest used on the benchmark hot paths
    (integrity checking hundreds of megabytes of simulated transfer
    data) where MD5/SHA-1 would dominate wall-clock time without
    changing what the experiment demonstrates. *)

type t = int64
(** A running hash value. *)

val start : t
(** FNV-1a offset basis. *)

val update : t -> bytes -> off:int -> len:int -> t
(** Fold [len] bytes of [b] at [off] into the running value.
    @raise Invalid_argument when the range is outside [b]. *)

val update_string : t -> string -> t
(** Fold a whole string. *)

val string : string -> t
(** One-shot hash of a string. *)

val to_hex : t -> string
(** 16-char lowercase hex rendering. *)
