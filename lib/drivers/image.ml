module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp
module Memory = Resilix_kernel.Memory
module Api = Resilix_kernel.Sysif.Api

type t = { origin : int; blob : bytes; programs : (string * int * int) list (* name, addr, count *) }

let assemble ~origin named =
  let buf = Buffer.create 1024 in
  let programs =
    List.map
      (fun (name, code) ->
        let encoded = Isa.assemble code in
        let addr = origin + Buffer.length buf in
        Buffer.add_bytes buf encoded;
        (name, addr, Bytes.length encoded / Isa.instr_size))
      named
  in
  { origin; blob = Buffer.to_bytes buf; programs }

let origin t = t.origin
let insn_count t = Bytes.length t.blob / Isa.instr_size

let load t =
  let mem = Api.memory () in
  Memory.write mem ~addr:t.origin t.blob;
  List.map
    (fun (name, addr, count) -> (name, Interp.attach ~base:addr ~insn_count:count))
    t.programs

let find programs name =
  match List.assoc_opt name programs with
  | Some p -> p
  | None -> invalid_arg ("Image.find: no program " ^ name)
