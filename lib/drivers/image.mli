(** Helper for laying out a driver's VM programs as one contiguous
    code image ("text segment") in its address space.

    Keeping all programs contiguous matters for fault injection: the
    injector mutates a random instruction of the whole image, exactly
    like the binary-mutation injectors the paper builds on. *)

type t
(** An assembled multi-program image. *)

val assemble : origin:int -> (string * Resilix_vm.Isa.instr list) list -> t
(** Assemble the named programs back to back starting at [origin]. *)

val origin : t -> int
(** Address of the first instruction. *)

val insn_count : t -> int
(** Total encoded instructions across all programs. *)

val load : t -> (string * Resilix_vm.Interp.program) list
(** Copy the image into the calling process's memory and return the
    per-program handles, each with its own decode cache.  Must run
    inside a fiber; a driver calls it once per incarnation. *)

val find : (string * Resilix_vm.Interp.program) list -> string -> Resilix_vm.Interp.program
(** Look up a loaded program by name.  A linear search: drivers
    resolve their handles once, right after {!load}, not per call.
    @raise Invalid_argument if absent. *)
