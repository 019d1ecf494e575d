(** Deterministic pseudo-random file content.

    The remote peer "serves a 512-MB file" (Sec. 7.1) without anyone
    materializing it: content is a pure function of (seed, offset), so
    the downloader can independently recompute the digest of what it
    should have received — the MD5-comparison step of the paper's
    methodology. *)

val read : seed:int -> off:int -> len:int -> bytes
(** The [len] bytes of the file at offset [off], in a fresh buffer. *)

val digest : seed:int -> size:int -> string
(** {!Resilix_checksum.Xxh64} hex digest of the whole file: the
    expected value of the digest wget, dd and the load generator
    compute over what they receive. *)

val md5_digest : seed:int -> size:int -> string
(** Streaming MD5 hex digest of the whole file (used by the wget
    example, mirroring the paper). *)
