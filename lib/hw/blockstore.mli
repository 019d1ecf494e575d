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

val read_into : t -> lba:int -> count:int -> bytes -> int -> unit
(** [read_into t ~lba ~count buf pos] writes [count] consecutive
    sectors into [buf] from [pos] on and touches no other byte of
    [buf]; a never-written sector is generated in place, so this
    allocates nothing.  @raise Invalid_argument, before writing
    anything, when the range is outside the device or [buf] has fewer
    than [count * sector_size] bytes from [pos]. *)

val read : t -> lba:int -> count:int -> bytes
(** [read_into] a fresh buffer of [count] sectors.
    @raise Invalid_argument when the range is outside the device. *)

val write : t -> lba:int -> bytes -> unit
(** Write whole sectors starting at [lba]; length must be a multiple
    of the sector size.  @raise Invalid_argument otherwise, or when
    the range is outside the device. *)

val written_sectors : t -> int
(** Number of sectors that have been explicitly written. *)
