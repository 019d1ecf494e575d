(** Sparse backing store for simulated disks.

    Unwritten sectors have deterministic pseudo-random content derived
    from the store's seed — this is how we "fill a 1-GB file with
    random data" (Sec. 7.1) without allocating a gigabyte: content is
    generated on first read and is stable across reads, so checksums
    of repeated transfers must agree. *)

type t
(** A block store. *)

val create : seed:int -> sectors:int -> sector_size:int -> t
(** A store of [sectors] sectors of [sector_size] bytes.
    @raise Invalid_argument unless [sector_size] is a positive
    multiple of 8 (content is generated a 64-bit word at a time). *)

val sector_size : t -> int
(** Bytes per sector. *)

val sectors : t -> int
(** Capacity in sectors. *)

val sector : t -> int -> bytes
(** A fresh copy of sector [lba]: what was last written there, or its
    generated content.  [read] returns the concatenation of these. *)

val read : t -> lba:int -> count:int -> bytes
(** Read [count] consecutive sectors into one fresh buffer; a
    never-written sector is generated in place and allocates nothing
    more.  @raise Invalid_argument when the range is outside the
    device. *)

val write : t -> lba:int -> bytes -> unit
(** Write whole sectors starting at [lba]; length must be a multiple
    of the sector size.  @raise Invalid_argument otherwise, or when
    the range is outside the device. *)

val written_sectors : t -> int
(** Number of sectors that have been explicitly written. *)
