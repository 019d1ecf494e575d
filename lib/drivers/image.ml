module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp
module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
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

let info t = (t.origin, Bytes.length t.blob / Isa.instr_size)

type program = { name : string; code : Interp.program }
type vm = { driver : string; loaded : program list; regs : int array }

let panic driver msg = Api.panic (driver ^ ": " ^ msg)
let fail vm msg = panic vm.driver msg

let boot ~driver image =
  let base, irq =
    match Api.args () with
    | [ base; irq ] -> (int_of_string base, int_of_string irq)
    | _ -> panic driver "expected args [base; irq]"
  in
  let t = image ~base in
  Memory.write (Api.memory ()) ~addr:t.origin t.blob;
  let loaded =
    List.map
      (fun (name, addr, count) -> { name; code = Interp.attach ~base:addr ~insn_count:count })
      t.programs
  in
  (match Api.irq_register irq with Ok () -> () | Error _ -> panic driver "cannot register IRQ");
  { driver; loaded; regs = Array.make 8 0 }

let program vm name =
  match List.find_opt (fun p -> String.equal p.name name) vm.loaded with
  | Some p -> p
  | None -> invalid_arg ("Image.program: no program " ^ name)

let exec ?(r1 = 0) ?(r2 = 0) ?(r3 = 0) ?(r4 = 0) vm p =
  let regs = vm.regs in
  (* Stores, not [Array.fill] (a C call): a runaway driver makes
     millions of these calls. *)
  regs.(0) <- 0;
  regs.(1) <- r1;
  regs.(2) <- r2;
  regs.(3) <- r3;
  regs.(4) <- r4;
  regs.(5) <- 0;
  regs.(6) <- 0;
  regs.(7) <- 0;
  match Interp.run p.code ~regs with
  | r0 -> r0
  | exception Interp.Check_failed { detail; _ } ->
      fail vm (Printf.sprintf "consistency check failed in %s: %s" p.name detail)
  | exception Interp.Io_failed { port } ->
      fail vm (Printf.sprintf "unexpected I/O failure on port %d in %s" port p.name)

let reg vm i = vm.regs.(i)

let rec wait_ready vm p ~busy =
  if exec vm p land busy <> 0 then begin
    Api.sleep 10_000;
    wait_ready vm p ~busy
  end

let dma_buffer vm ~addr ~len =
  match
    Api.grant_create ~for_:Resilix_proto.Wellknown.hardware ~base:addr ~len
      ~access:Sysif.Read_write
  with
  | Error _ -> fail vm "grant_create failed"
  | Ok g -> ( match Api.iommu_map g with Ok h -> h | Error _ -> fail vm "iommu_map failed")
