(** Interpreter for driver-VM programs.

    Programs execute *inside a driver process's fiber*: instruction
    fetches read the process's own memory (so injected faults in the
    loaded image take effect immediately), loads/stores go to the same
    address space (wild pointers raise real MMU faults that kill the
    process with SIGSEGV), and [In]/[Out] instructions go through the
    process's I/O-port handle ({!Resilix_kernel.Sysif.ports}), subject
    to the driver's privileges at each access.

    Failure surface, mapped to the paper's defect classes (Sec. 5.1):
    - {!Check_failed} and {!Io_failed} are caught by the driver
      library, which panics — class 1 (exit/panic).
    - Illegal opcodes raise SIGILL and MMU faults raise SIGSEGV via
      the kernel — class 2 (CPU/MMU exception).
    - Runaway loops never return to the driver's message loop, so
      heartbeats go unanswered — class 4. *)

exception Check_failed of { index : int; detail : string }
(** A [Chk*] consistency check failed: the driver detected an
    internal inconsistency. *)

exception Io_failed of { port : int }
(** A port access was refused (e.g. a corrupted port number outside
    the driver's privilege range). *)

type program
(** A program in a process's memory, with its decode cache, that
    process's memory and its I/O-port handle.  It runs only in the
    process that attached it.  Each instruction slot remembers the 8
    encoded bytes it was last decoded from; a fetch reuses the cached
    decode only while the bytes in memory still equal them, so any
    write to the code (injected fault, wild store, safecopy, DMA)
    takes effect at the next fetch of that slot without invalidation
    hooks. *)

val load : base:int -> bytes -> program
(** Copy an assembled image into the *calling process's* memory at
    [base] and attach it.  Must be performed from inside a fiber.
    @raise Resilix_kernel.Memory.Fault if the image does not fit. *)

val attach : base:int -> insn_count:int -> program
(** Describe [insn_count] instructions already in the *calling
    process's* memory at [base], with an empty decode cache, taking
    that memory and the process's port handle once.  Must be performed
    from inside a fiber.
    @raise Resilix_kernel.Memory.Fault if the code range is outside
    the process's memory. *)

val base : program -> int
(** Address of the program's first instruction. *)

val run : program -> regs:int array -> int
(** Execute from instruction 0 until [Ret], returning r0.  [regs] is
    the 8-register file (mutated in place; index 0 = r0), which is how
    the OCaml part of a driver passes parameters in and reads results
    out.  Every 32 instructions the interpreter
    yields ~1 microsecond of simulated CPU time, so runaway loops
    advance virtual time instead of hanging the simulator.  Neither a
    run nor a port access performs an effect unless it must block: a
    warm run of a short program allocates nothing.

    @raise Check_failed / Io_failed as documented above; illegal
    instructions and MMU faults terminate the process directly. *)
