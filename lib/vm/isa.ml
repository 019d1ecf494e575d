type reg = R0 | R1 | R2 | R3 | R4 | R5 | R6 | R7

type instr =
  | Nop
  | Movi of reg * int
  | Mov of reg * reg
  | Add of reg * reg
  | Addi of reg * int
  | Sub of reg * reg
  | Andi of reg * int
  | Shr of reg * int
  | Shl of reg * int
  | Load of reg * reg * int
  | Store of reg * int * reg
  | Loadb of reg * reg * int
  | Storeb of reg * int * reg
  | In of reg * int
  | Out of int * reg
  | Jmp of string
  | Jz of reg * string
  | Jnz of reg * string
  | Chkeq of reg * int
  | Chklt of reg * int
  | Chknz of reg
  | Ret
  | Fail
  | Label of string

let instr_size = 8

let reg_index = function
  | R0 -> 0
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7

(* Opcode map.  Gaps are deliberate: bit flips in the opcode byte have
   a realistic chance of producing an illegal instruction. *)
let op_nop = 0x01
let op_movi = 0x02
let op_mov = 0x03
let op_add = 0x04
let op_addi = 0x05
let op_sub = 0x06
let op_andi = 0x07
let op_shr = 0x08
let op_shl = 0x09
let op_load = 0x0A
let op_store = 0x0B
let op_loadb = 0x0C
let op_storeb = 0x0D
let op_in = 0x10
let op_out = 0x11
let op_jmp = 0x20
let op_jz = 0x21
let op_jnz = 0x22
let op_chkeq = 0x30
let op_chklt = 0x31
let op_chknz = 0x32
let op_ret = 0x40
let op_fail = 0x41

let opcode_info op =
  match op with
  | 0x01 -> Some "nop"
  | 0x02 -> Some "movi"
  | 0x03 -> Some "mov"
  | 0x04 -> Some "add"
  | 0x05 -> Some "addi"
  | 0x06 -> Some "sub"
  | 0x07 -> Some "andi"
  | 0x08 -> Some "shr"
  | 0x09 -> Some "shl"
  | 0x0A -> Some "load"
  | 0x0B -> Some "store"
  | 0x0C -> Some "loadb"
  | 0x0D -> Some "storeb"
  | 0x10 -> Some "in"
  | 0x11 -> Some "out"
  | 0x20 -> Some "jmp"
  | 0x21 -> Some "jz"
  | 0x22 -> Some "jnz"
  | 0x30 -> Some "chkeq"
  | 0x31 -> Some "chklt"
  | 0x32 -> Some "chknz"
  | 0x40 -> Some "ret"
  | 0x41 -> Some "fail"
  | _ -> None

let encoded_length instrs =
  List.length (List.filter (function Label _ -> false | _ -> true) instrs)

(* First pass: label -> instruction index. *)
let label_table instrs =
  let table = Hashtbl.create 16 in
  let idx = ref 0 in
  List.iter
    (fun i ->
      match i with
      | Label name ->
          if Hashtbl.mem table name then invalid_arg ("Isa.assemble: duplicate label " ^ name);
          Hashtbl.replace table name !idx
      | _ -> incr idx)
    instrs;
  table

let fits_imm v = v >= -0x8000_0000 && v <= 0xFFFF_FFFF

let assemble instrs =
  let labels = label_table instrs in
  let target name =
    match Hashtbl.find_opt labels name with
    | Some i -> i
    | None -> invalid_arg ("Isa.assemble: unknown label " ^ name)
  in
  let buf = Buffer.create (encoded_length instrs * instr_size) in
  let emit op rd rs imm =
    if not (fits_imm imm) then invalid_arg "Isa.assemble: immediate out of range";
    let imm = imm land 0xFFFF_FFFF in
    Buffer.add_char buf (Char.chr op);
    Buffer.add_char buf (Char.chr rd);
    Buffer.add_char buf (Char.chr rs);
    Buffer.add_char buf '\000';
    Buffer.add_char buf (Char.chr (imm land 0xFF));
    Buffer.add_char buf (Char.chr ((imm lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr ((imm lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((imm lsr 24) land 0xFF))
  in
  let r = reg_index in
  List.iter
    (fun i ->
      match i with
      | Label _ -> ()
      | Nop -> emit op_nop 0 0 0
      | Movi (rd, imm) -> emit op_movi (r rd) 0 imm
      | Mov (rd, rs) -> emit op_mov (r rd) (r rs) 0
      | Add (rd, rs) -> emit op_add (r rd) (r rs) 0
      | Addi (rd, imm) -> emit op_addi (r rd) 0 imm
      | Sub (rd, rs) -> emit op_sub (r rd) (r rs) 0
      | Andi (rd, imm) -> emit op_andi (r rd) 0 imm
      | Shr (rd, imm) -> emit op_shr (r rd) 0 imm
      | Shl (rd, imm) -> emit op_shl (r rd) 0 imm
      | Load (rd, rs, imm) -> emit op_load (r rd) (r rs) imm
      | Store (rd, imm, rs) -> emit op_store (r rd) (r rs) imm
      | Loadb (rd, rs, imm) -> emit op_loadb (r rd) (r rs) imm
      | Storeb (rd, imm, rs) -> emit op_storeb (r rd) (r rs) imm
      | In (rd, port) -> emit op_in (r rd) 0 port
      | Out (port, rs) -> emit op_out 0 (r rs) port
      | Jmp l -> emit op_jmp 0 0 (target l)
      | Jz (rd, l) -> emit op_jz (r rd) 0 (target l)
      | Jnz (rd, l) -> emit op_jnz (r rd) 0 (target l)
      | Chkeq (rd, imm) -> emit op_chkeq (r rd) 0 imm
      | Chklt (rd, imm) -> emit op_chklt (r rd) 0 imm
      | Chknz rd -> emit op_chknz (r rd) 0 0
      | Ret -> emit op_ret 0 0 0
      | Fail -> emit op_fail 0 0 0)
    instrs;
  Buffer.to_bytes buf

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

(* Sign-extend a 32-bit value. *)
let signed imm = if imm land 0x8000_0000 <> 0 then imm - 0x1_0000_0000 else imm

let decode image ~index =
  let off = index * instr_size in
  if off < 0 || off + instr_size > Bytes.length image then
    raise (Illegal_instruction { index; byte = -1 });
  let byte i = Char.code (Bytes.get image (off + i)) in
  let op = byte 0 in
  (* Register fields are architecturally 3 bits: corrupted high bits
     are ignored rather than trapping, like dense real-world ISAs —
     a mutated register field yields wrong behaviour, not #UD. *)
  let rd = byte 1 land 7 in
  let rs = byte 2 land 7 in
  let imm = byte 4 lor (byte 5 lsl 8) lor (byte 6 lsl 16) lor (byte 7 lsl 24) in
  let simm = signed imm in
  if op = op_nop then D_nop
  else if op = op_movi then D_movi (rd, simm)
  else if op = op_mov then D_mov (rd, rs)
  else if op = op_add then D_add (rd, rs)
  else if op = op_addi then D_addi (rd, simm)
  else if op = op_sub then D_sub (rd, rs)
  else if op = op_andi then D_andi (rd, simm)
  else if op = op_shr then D_shr (rd, imm land 31)
  else if op = op_shl then D_shl (rd, imm land 31)
  else if op = op_load then D_load (rd, rs, simm)
  else if op = op_store then D_store (rd, simm, rs)
  else if op = op_loadb then D_loadb (rd, rs, simm)
  else if op = op_storeb then D_storeb (rd, simm, rs)
  else if op = op_in then D_in (rd, imm)
  else if op = op_out then D_out (imm, rs)
  else if op = op_jmp then D_jmp imm
  else if op = op_jz then D_jz (rd, imm)
  else if op = op_jnz then D_jnz (rd, imm)
  else if op = op_chkeq then D_chkeq (rd, simm)
  else if op = op_chklt then D_chklt (rd, simm)
  else if op = op_chknz then D_chknz rd
  else if op = op_ret then D_ret
  else if op = op_fail then D_fail
  else raise (Illegal_instruction { index; byte = op })

type operands = { rd : bool; rs : bool; mem : bool }

let operands_of = function
  | D_nop | D_jmp _ | D_ret | D_fail -> { rd = false; rs = false; mem = false }
  | D_movi _ | D_addi _ | D_andi _ | D_shr _ | D_shl _ | D_in _ | D_jz _ | D_jnz _ | D_chkeq _
  | D_chklt _ | D_chknz _ ->
      { rd = true; rs = false; mem = false }
  | D_mov _ | D_add _ | D_sub _ -> { rd = true; rs = true; mem = false }
  | D_load _ | D_store _ | D_loadb _ | D_storeb _ -> { rd = true; rs = true; mem = true }
  | D_out _ -> { rd = false; rs = true; mem = false }

(* Indexed by opcode byte; which constructor an opcode decodes to is
   read off [decode] itself. *)
let operand_table =
  Array.init 256 (fun op ->
      let template = Bytes.make instr_size '\000' in
      Bytes.set template 0 (Char.chr op);
      match decode template ~index:0 with
      | d -> Some (operands_of d)
      | exception Illegal_instruction _ -> None)

let operands op = if op < 0 || op > 255 then None else operand_table.(op)

let disassemble_one image ~index =
  match decode image ~index with
  | D_nop -> "nop"
  | D_movi (rd, imm) -> Printf.sprintf "movi r%d, %d" rd imm
  | D_mov (rd, rs) -> Printf.sprintf "mov r%d, r%d" rd rs
  | D_add (rd, rs) -> Printf.sprintf "add r%d, r%d" rd rs
  | D_addi (rd, imm) -> Printf.sprintf "addi r%d, %d" rd imm
  | D_sub (rd, rs) -> Printf.sprintf "sub r%d, r%d" rd rs
  | D_andi (rd, imm) -> Printf.sprintf "andi r%d, 0x%x" rd imm
  | D_shr (rd, n) -> Printf.sprintf "shr r%d, %d" rd n
  | D_shl (rd, n) -> Printf.sprintf "shl r%d, %d" rd n
  | D_load (rd, rs, imm) -> Printf.sprintf "load r%d, [r%d%+d]" rd rs imm
  | D_store (rd, imm, rs) -> Printf.sprintf "store [r%d%+d], r%d" rd imm rs
  | D_loadb (rd, rs, imm) -> Printf.sprintf "loadb r%d, [r%d%+d]" rd rs imm
  | D_storeb (rd, imm, rs) -> Printf.sprintf "storeb [r%d%+d], r%d" rd imm rs
  | D_in (rd, port) -> Printf.sprintf "in r%d, 0x%x" rd port
  | D_out (port, rs) -> Printf.sprintf "out 0x%x, r%d" port rs
  | D_jmp target -> Printf.sprintf "jmp %d" target
  | D_jz (rd, target) -> Printf.sprintf "jz r%d, %d" rd target
  | D_jnz (rd, target) -> Printf.sprintf "jnz r%d, %d" rd target
  | D_chkeq (rd, imm) -> Printf.sprintf "chkeq r%d, %d" rd imm
  | D_chklt (rd, imm) -> Printf.sprintf "chklt r%d, %d" rd imm
  | D_chknz rd -> Printf.sprintf "chknz r%d" rd
  | D_ret -> "ret"
  | D_fail -> "fail"
  | exception Illegal_instruction { byte; _ } -> Printf.sprintf "<illegal 0x%02X>" (byte land 0xFF)

let disassemble image =
  List.init (Bytes.length image / instr_size) (fun index -> disassemble_one image ~index)
