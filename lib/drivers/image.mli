(** A driver's VM programs and the runtime that runs them.

    The programs are laid out as one contiguous code image ("text
    segment") in the driver's address space.  Keeping them contiguous
    matters for fault injection: the injector mutates a random
    instruction of the whole image, exactly like the binary-mutation
    injectors the paper builds on.

    The rest is the device-independent part of every VM driver: boot
    from the [base; irq] arguments, program handles, the register-file
    call with its panics, reset polling and DMA buffers.  A driver
    file keeps only its register map, its programs and its
    device-specific request handling. *)

type t
(** An assembled multi-program image. *)

val assemble : origin:int -> (string * Resilix_vm.Isa.instr list) list -> t
(** Assemble the named programs back to back starting at [origin]. *)

val info : t -> int * int
(** [(origin, insn_count)]: the address of the first instruction and
    the encoded instructions across all programs. *)

(** {1 Driver-VM runtime} *)

type vm
(** One driver incarnation's loaded image and register file. *)

type program
(** A loaded program, with its own decode cache, bound to the
    incarnation that booted it (its memory and I/O-port handle). *)

val boot : driver:string -> (base:int -> t) -> vm
(** Parse the [base; irq] arguments, copy [image ~base] into the
    calling process's memory, attach its programs there and register
    the IRQ, in that order.  [driver] prefixes every panic.  Must run
    inside a fiber; a driver calls it once per incarnation, and its
    programs run only in that incarnation. *)

val program : vm -> string -> program
(** Resolve a program by name (once, not per call).
    @raise Invalid_argument if absent. *)

val exec : ?r1:int -> ?r2:int -> ?r3:int -> ?r4:int -> vm -> program -> int
(** Run a program with r1..r4 as given (default 0) and every other
    register zeroed; returns r0.  A failed consistency check or port
    access panics ["<driver>: ... in <program>"]. *)

val reg : vm -> int -> int
(** Register [i] as the last {!exec} left it. *)

val wait_ready : vm -> program -> busy:int -> unit
(** Run a status program every 10 ms until none of the [busy] bits
    is set in its result. *)

val dma_buffer : vm -> addr:int -> len:int -> int
(** Grant the device access to [len] bytes at [addr] and map them
    through the IOMMU; returns the DMA handle. *)

val fail : vm -> string -> 'a
(** Panic with ["<driver>: msg"]. *)
