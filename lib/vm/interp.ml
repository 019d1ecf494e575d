module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Status = Resilix_proto.Status
module Signal = Resilix_proto.Signal

exception Check_failed of { index : int; detail : string }
exception Io_failed of { port : int }

(* [decoded.(i)] is slot [i] decoded from the 8 bytes at offset
   [8 * i] of [keys]; it is [empty] while the slot has never been
   decoded, or was last seen holding an illegal opcode.  [mem] and
   [ports] are the attaching process's, whose memory holds the code
   range (checked once, at attach). *)
type program = {
  base : int;
  insn_count : int;
  keys : bytes;
  decoded : Isa.decoded array;
  mem : Memory.t;
  ports : Sysif.ports;
}

(* Never produced by [Isa.decode] (jump targets are unsigned), and
   compared physically anyway. *)
let empty = Isa.D_jmp (-1)

let attach ~base ~insn_count =
  let mem = Api.memory () in
  Memory.check mem ~addr:base ~len:(insn_count * Isa.instr_size);
  {
    base;
    insn_count;
    keys = Bytes.create (insn_count * Isa.instr_size);
    decoded = Array.make insn_count empty;
    mem;
    ports = Api.ports ();
  }

let load ~base image =
  Memory.write (Api.memory ()) ~addr:base image;
  attach ~base ~insn_count:(Bytes.length image / Isa.instr_size)

let base p = p.base

let mask32 v = v land 0xFFFF_FFFF

(* Instructions between two 1-us yields. *)
let fuel_slice = 32

let sigill () = raise (Sysif.Killed_exn (Status.Killed Signal.Sig_ill))

(* Decode from process memory, remembering the bytes decoded from. *)
let decode_slot p index ~addr ~off =
  Memory.blit_out p.mem ~addr ~dst:p.keys ~dst_off:off ~len:Isa.instr_size;
  match Isa.decode p.keys ~index with
  | d ->
      p.decoded.(index) <- d;
      d
  | exception Isa.Illegal_instruction _ ->
      p.decoded.(index) <- empty;
      sigill ()

let fetch p index =
  (* Out-of-image program counters are treated like executing
     unmapped memory: an illegal-instruction CPU exception. *)
  if index < 0 || index >= p.insn_count then sigill ();
  let off = index * Isa.instr_size in
  let addr = p.base + off in
  let d = Array.unsafe_get p.decoded index in
  (* A cached decode is reused only while the code bytes are the ones
     it came from, so no writer (fault injector, wild store, copy or
     DMA) has to invalidate anything. *)
  if d != empty && Memory.equal_u64_unchecked p.mem ~addr p.keys ~off then d
  else decode_slot p index ~addr ~off

let run program ~regs =
  if Array.length regs <> 8 then invalid_arg "Interp.run: want 8 registers";
  let mem = program.mem and ports = program.ports in
  let pc = ref 0 in
  let fuel = ref fuel_slice in
  let running = ref true in
  while !running do
    decr fuel;
    if !fuel <= 0 then begin
      fuel := fuel_slice;
      Api.yield ~cost:1 ()
    end;
    let index = !pc in
    incr pc;
    match fetch program index with
    | Isa.D_nop -> ()
    | Isa.D_movi (rd, imm) -> regs.(rd) <- mask32 imm
    | Isa.D_mov (rd, rs) -> regs.(rd) <- regs.(rs)
    | Isa.D_add (rd, rs) -> regs.(rd) <- mask32 (regs.(rd) + regs.(rs))
    | Isa.D_addi (rd, imm) -> regs.(rd) <- mask32 (regs.(rd) + imm)
    | Isa.D_sub (rd, rs) -> regs.(rd) <- mask32 (regs.(rd) - regs.(rs))
    | Isa.D_andi (rd, imm) -> regs.(rd) <- regs.(rd) land mask32 imm
    | Isa.D_shr (rd, n) -> regs.(rd) <- regs.(rd) lsr n
    | Isa.D_shl (rd, n) -> regs.(rd) <- mask32 (regs.(rd) lsl n)
    | Isa.D_load (rd, rs, imm) -> regs.(rd) <- Memory.get_u32 mem (regs.(rs) + imm)
    | Isa.D_store (rd, imm, rs) -> Memory.set_u32 mem (regs.(rd) + imm) regs.(rs)
    | Isa.D_loadb (rd, rs, imm) -> regs.(rd) <- Memory.get_u8 mem (regs.(rs) + imm)
    | Isa.D_storeb (rd, imm, rs) -> Memory.set_u8 mem (regs.(rd) + imm) regs.(rs)
    | Isa.D_in (rd, port) -> begin
        match ports.port_in port with
        | v -> regs.(rd) <- mask32 v
        | exception Sysif.Port_refused -> raise (Io_failed { port })
      end
    | Isa.D_out (port, rs) -> begin
        try ports.port_out port regs.(rs) with Sysif.Port_refused -> raise (Io_failed { port })
      end
    | Isa.D_jmp target -> pc := target
    | Isa.D_jz (rd, target) -> if regs.(rd) = 0 then pc := target
    | Isa.D_jnz (rd, target) -> if regs.(rd) <> 0 then pc := target
    | Isa.D_chkeq (rd, imm) ->
        if regs.(rd) <> mask32 imm then
          raise
            (Check_failed
               { index; detail = Printf.sprintf "r%d = %d, expected %d" rd regs.(rd) (mask32 imm) })
    | Isa.D_chklt (rd, imm) ->
        if regs.(rd) >= mask32 imm then
          raise
            (Check_failed
               { index; detail = Printf.sprintf "r%d = %d, expected < %d" rd regs.(rd) (mask32 imm) })
    | Isa.D_chknz rd ->
        if regs.(rd) = 0 then
          raise (Check_failed { index; detail = Printf.sprintf "r%d is zero" rd })
    | Isa.D_ret -> running := false
    | Isa.D_fail -> raise (Check_failed { index; detail = "explicit fail" })
  done;
  regs.(0)
