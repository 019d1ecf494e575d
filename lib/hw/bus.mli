(** The I/O port bus.

    Device models claim port ranges; a driver's port accesses
    ({!Resilix_kernel.Sysif.ports}) are routed here after the kernel's
    per-driver privilege check (Sec. 4: drivers may only touch the
    ports they were granted). *)

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
(** Install this bus as the kernel's ({!Resilix_kernel.Kernel.set_bus}). *)

val read : t -> int -> int
(** [read t port]: the claiming device's register.  Unclaimed ports
    float: they read [0xFFFFFFFF] — like real ISA buses, and
    deliberately forgiving to corrupted drivers whose port arithmetic
    went wrong inside their own range.  Never refuses. *)

val write : t -> int -> int -> unit
(** [write t port value]: to the claiming device; dropped on an
    unclaimed port.  Never refuses. *)
