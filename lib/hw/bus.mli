(** The I/O port bus.

    Device models claim port ranges; the kernel's mediated [Devio_*]
    kernel calls are routed here after the per-driver privilege check
    (Sec. 4: drivers may only touch the ports they were granted). *)

type t
(** A bus instance. *)

val create : unit -> t
(** An empty bus. *)

val register : t -> base:int -> len:int -> read:(int -> int) -> write:(int -> int -> unit) -> unit
(** [register t ~base ~len ~read ~write] claims ports [base..base+len-1];
    both callbacks receive the register offset relative to [base], and
    [write] also the 32-bit value.
    @raise Invalid_argument on overlapping claims. *)

val attach : t -> Resilix_kernel.Kernel.t -> unit
(** Install this bus as the kernel's I/O handler. *)

val io : t -> [ `In of int | `Out of int * int ] -> (int, Resilix_proto.Errno.t) result
(** Raw access (what the kernel calls); never [Error].  Unclaimed
    ports float: reads return [0xFFFFFFFF], writes are dropped — like
    real ISA buses, and deliberately forgiving to corrupted drivers
    whose port arithmetic went wrong inside their own range.  A write
    answers [Ok 0]. *)
