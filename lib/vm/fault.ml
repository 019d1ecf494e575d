module Rng = Resilix_sim.Rng
module Memory = Resilix_kernel.Memory

type fault_type =
  | Change_src
  | Change_dst
  | Garble_pointer
  | Stale_param
  | Invert_loop
  | Flip_bit
  | Elide

let all = [| Change_src; Change_dst; Garble_pointer; Stale_param; Invert_loop; Flip_bit; Elide |]

let to_string = function
  | Change_src -> "change-src-register"
  | Change_dst -> "change-dst-register"
  | Garble_pointer -> "garble-pointer"
  | Stale_param -> "stale-parameter"
  | Invert_loop -> "invert-loop-condition"
  | Flip_bit -> "flip-bit"
  | Elide -> "elide-instruction"

let random_type rng = Rng.pick rng all

let opcode_of mem ~base index = Memory.get_u8 mem (base + (index * Isa.instr_size))
let set_opcode mem ~base index v = Memory.set_u8 mem (base + (index * Isa.instr_size)) v

let uses field op = match Isa.operands op with Some o -> field o | None -> false
let has_rs = uses (fun o -> o.Isa.rs)
let has_rd = uses (fun o -> o.Isa.rd)
let is_mem = uses (fun o -> o.Isa.mem)
let is_cond_jump op = op = Isa.op_jz || op = Isa.op_jnz

(* Find an instruction satisfying [pred], scanning circularly from a
   random start so repeated injections spread over the image. *)
let find_target rng mem ~base ~insn_count pred =
  if insn_count = 0 then None
  else begin
    let start = Rng.int rng insn_count in
    let rec scan i =
      if i >= insn_count then None
      else
        let index = (start + i) mod insn_count in
        if pred (opcode_of mem ~base index) then Some index else scan (i + 1)
    in
    scan 0
  end

let instr_bytes mem ~base index =
  Memory.read mem ~addr:(base + (index * Isa.instr_size)) ~len:Isa.instr_size

let inject rng mem ~base ~insn_count ft =
  (* Include the disassembly of the mutated instruction, like a real
     injector's log would. *)
  let describe index what =
    let rendered = Isa.disassemble_one (instr_bytes mem ~base index) ~index:0 in
    Some (Printf.sprintf "%s at instruction %d: now `%s`" what index rendered)
  in
  match ft with
  | Change_src -> (
      match find_target rng mem ~base ~insn_count has_rs with
      | None -> None
      | Some index ->
          let addr = base + (index * Isa.instr_size) + 2 in
          Memory.set_u8 mem addr (Rng.int rng 8);
          describe index "changed source register")
  | Change_dst -> (
      match find_target rng mem ~base ~insn_count has_rd with
      | None -> None
      | Some index ->
          let addr = base + (index * Isa.instr_size) + 1 in
          Memory.set_u8 mem addr (Rng.int rng 8);
          describe index "changed destination register")
  | Garble_pointer -> (
      match find_target rng mem ~base ~insn_count is_mem with
      | None -> None
      | Some index ->
          (* XOR the 32-bit address operand with a random mask: the
             classic wild-pointer corruption. *)
          let addr = base + (index * Isa.instr_size) + 4 in
          let mask = 1 + Rng.int rng 0x7FFF_FFFE in
          let old = Memory.get_u32 mem addr in
          Memory.set_u32 mem addr (old lxor mask);
          describe index "garbled pointer operand")
  | Stale_param -> (
      match find_target rng mem ~base ~insn_count (fun op -> op = Isa.op_movi) with
      | None -> None
      | Some index ->
          (* Dropping the MOVI means the code keeps using whatever the
             register currently holds — the "current value instead of
             parameter" fault. *)
          set_opcode mem ~base index Isa.op_nop;
          describe index "parameter load elided (stale register reuse)")
  | Invert_loop -> (
      match find_target rng mem ~base ~insn_count is_cond_jump with
      | None -> None
      | Some index ->
          let op = opcode_of mem ~base index in
          set_opcode mem ~base index (if op = Isa.op_jz then Isa.op_jnz else Isa.op_jz);
          describe index "inverted loop/branch condition")
  | Flip_bit ->
      if insn_count = 0 then None
      else begin
        let index = Rng.int rng insn_count in
        let byte_off = Rng.int rng Isa.instr_size in
        let bit = Rng.int rng 8 in
        let addr = base + (index * Isa.instr_size) + byte_off in
        Memory.set_u8 mem addr (Memory.get_u8 mem addr lxor (1 lsl bit));
        describe index (Printf.sprintf "flipped bit %d of byte %d" bit byte_off)
      end
  | Elide ->
      if insn_count = 0 then None
      else begin
        let index = Rng.int rng insn_count in
        set_opcode mem ~base index Isa.op_nop;
        describe index "instruction elided"
      end
