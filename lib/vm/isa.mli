(** The driver VM instruction set.

    Device drivers in this system implement their device-facing hot
    paths (hardware init, transmit, receive, interrupt handling) as
    programs for a small register machine whose code lives *inside the
    driver process's address space*, like the text segment of a real
    driver binary.  That is what makes the paper's software
    fault-injection methodology (Sec. 7.2) reproducible: the injector
    mutates encoded instructions of the running driver, and the
    consequences — panics, MMU faults, illegal opcodes, runaway
    loops — emerge from execution rather than being scripted.

    Encoding: each instruction occupies 8 bytes —
    [opcode, rd, rs, 0, imm32 (little endian)]. *)

type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7

type instr =
  | Nop
  | Movi of reg * int  (** rd := imm *)
  | Mov of reg * reg  (** rd := rs *)
  | Add of reg * reg  (** rd := rd + rs *)
  | Addi of reg * int  (** rd := rd + imm *)
  | Sub of reg * reg  (** rd := rd - rs *)
  | Andi of reg * int  (** rd := rd land imm *)
  | Shr of reg * int  (** rd := rd lsr imm *)
  | Shl of reg * int  (** rd := (rd lsl imm) land 0xFFFFFFFF *)
  | Load of reg * reg * int  (** rd := mem32\[rs + imm\] *)
  | Store of reg * int * reg  (** mem32\[rd + imm\] := rs *)
  | Loadb of reg * reg * int  (** rd := mem8\[rs + imm\] *)
  | Storeb of reg * int * reg  (** mem8\[rd + imm\] := rs land 0xFF *)
  | In of reg * int  (** rd := io_in(imm) — mediated port read *)
  | Out of int * reg  (** io_out(imm, rs) — mediated port write *)
  | Jmp of string  (** unconditional jump to label *)
  | Jz of reg * string  (** jump if rd = 0 *)
  | Jnz of reg * string  (** jump if rd <> 0 *)
  | Chkeq of reg * int  (** consistency check: panic unless rd = imm *)
  | Chklt of reg * int  (** consistency check: panic unless rd < imm *)
  | Chknz of reg  (** consistency check: panic unless rd <> 0 *)
  | Ret  (** finish, returning r0 *)
  | Fail  (** explicit panic *)
  | Label of string  (** assembler pseudo-instruction, emits nothing *)

val instr_size : int
(** Bytes per encoded instruction (8). *)

val assemble : instr list -> bytes
(** Resolve labels and encode.  Jump targets become absolute
    instruction indices.  @raise Invalid_argument on unknown labels,
    duplicate labels, or immediates that do not fit in 32 bits. *)

(** A decoded instruction as the interpreter sees it (jumps are
    absolute indices after assembly). *)
type decoded =
  | D_nop
  | D_movi of int * int
  | D_mov of int * int
  | D_add of int * int
  | D_addi of int * int
  | D_sub of int * int
  | D_andi of int * int
  | D_shr of int * int
  | D_shl of int * int
  | D_load of int * int * int
  | D_store of int * int * int
  | D_loadb of int * int * int
  | D_storeb of int * int * int
  | D_in of int * int
  | D_out of int * int
  | D_jmp of int
  | D_jz of int * int
  | D_jnz of int * int
  | D_chkeq of int * int
  | D_chklt of int * int
  | D_chknz of int
  | D_ret
  | D_fail

exception Illegal_instruction of { index : int; byte : int }
(** Raised when decoding hits an invalid opcode — the simulated CPU's
    illegal-instruction exception.  Register fields are 3 bits and
    mask silently, so (as on dense real-world ISAs) a corrupted
    register field produces wrong behaviour rather than a trap. *)

val decode : bytes -> index:int -> decoded
(** Decode the instruction at instruction index [index] of an encoded
    image.  @raise Illegal_instruction on junk. *)

val opcode_info : int -> string option
(** Mnemonic for an opcode byte, or [None] if it is not valid —
    exposed so the fault injector can report what it corrupted. *)

(** Which fields of an encoded instruction its opcode uses: [rd] and
    [rs] whether it reads or writes the register they name, [mem]
    whether the immediate is a memory-address offset (load/store). *)
type operands = { rd : bool; rs : bool; mem : bool }

val operands : int -> operands option
(** The fields an opcode byte uses, or [None] if it is not valid —
    derived from {!decode}, so binary-mutation tools (the fault
    injector) need no opcode lists of their own. *)

val op_nop : int
val op_movi : int
val op_jz : int
val op_jnz : int
(** Opcode bytes the fault injector rewrites: eliding an instruction
    writes [op_nop]; inverting a branch swaps [op_jz] and [op_jnz]. *)

val disassemble_one : bytes -> index:int -> string
(** Render one encoded instruction, e.g. ["load r3, [r5+0]"]; corrupt
    encodings render as ["<illegal 0xEE>"]. *)

val disassemble : bytes -> string list
(** Render a whole image, one line per instruction. *)
