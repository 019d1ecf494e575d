(** Simulated private address spaces.

    Each process owns one flat byte region.  Any access outside it
    raises {!Fault}, the simulator's MMU exception: if it happens on a
    process's own stack (e.g. the driver VM dereferencing a garbled
    pointer), the kernel kills the process with SIGSEGV — defect
    class 2 of Sec. 5.1. *)

exception Fault of { addr : int; len : int }
(** MMU exception: access of [len] bytes at [addr] fell outside the
    address space. *)

type t
(** An address space. *)

val create : size:int -> t
(** [create ~size] is a zero-filled space of [size] bytes.  Its bytes
    are allocated on the first write; until then every accessor reads
    zeros, with the same range checks.
    @raise Invalid_argument if [size] is negative. *)

val size : t -> int
(** Capacity in bytes. *)

val read : t -> addr:int -> len:int -> bytes
(** Copy out a range.  @raise Fault on out-of-bounds access. *)

val write : t -> addr:int -> bytes -> unit
(** Copy a buffer in at [addr].  @raise Fault on out-of-bounds. *)

val blit_out : t -> addr:int -> dst:bytes -> dst_off:int -> len:int -> unit
(** Copy from the space into a caller buffer without allocating. *)

val blit_in : t -> addr:int -> src:bytes -> src_off:int -> len:int -> unit
(** Copy from a caller buffer into the space. *)

val fill : t -> addr:int -> len:int -> (bytes -> int -> int -> unit) -> unit
(** [fill t ~addr ~len f] checks the range, then calls [f data pos len]
    with the space's own bytes: [f] writes the [len] bytes from [pos]
    on in place.  [data] is the whole space, so [f] must write within
    the [len] it is given: a byte past it lands in the owner's other
    memory.  It is how a device DMAs into a space without staging the
    data in a buffer of its own.
    @raise Fault on out-of-bounds access, before [f] runs. *)

val view : t -> addr:int -> len:int -> (bytes -> int -> 'a) -> 'a
(** [view t ~addr ~len f] checks the range, then is [f data pos] where
    the [len] bytes from [pos] in [data] are the range's content.
    [data] is the space's own bytes (a fresh zero buffer while the
    space has never been written): [f] must not write to it nor keep
    it.  @raise Fault on out-of-bounds access, before [f] runs. *)

val check : t -> addr:int -> len:int -> unit
(** [check t ~addr ~len] is [()] when the [len] bytes at [addr] lie in
    the space.  @raise Fault otherwise. *)

val equal_u64_unchecked : t -> addr:int -> bytes -> off:int -> bool
(** [equal_u64_unchecked t ~addr key ~off] is whether the 8 bytes at
    [addr] equal bytes [off .. off+7] of [key].  Does not allocate and
    checks no bounds: the caller must have checked the 8 bytes at
    [addr] with {!check} (a space never shrinks) and that [key] has
    [off + 8] bytes. *)

val copy : src:t -> src_addr:int -> dst:t -> dst_addr:int -> len:int -> unit
(** Inter-space copy (the kernel's virtual-copy primitive). *)

val get_u8 : t -> int -> int
(** One byte. @raise Fault if out of bounds. *)

val set_u8 : t -> int -> int -> unit
(** Store one byte (low 8 bits of the value). *)

val get_u32 : t -> int -> int
(** Little-endian 32-bit load (returned as a non-negative int). *)

val set_u32 : t -> int -> int -> unit
(** Little-endian 32-bit store (low 32 bits of the value). *)
