(** FNV-1a 64-bit hash.

    The fingerprint hash: corpus keys, coverage shapes, event and span
    fingerprints, [sim_fingerprint] and the pinned trace digests.  Those
    values are recorded in repro files, corpora and goldens, so this
    function never changes.  It folds one byte per multiply, so bulk
    data is never hashed with it; that is {!Xxh64}'s job. *)

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
