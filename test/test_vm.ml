(* Tests for the driver VM: assembler/decoder, interpreter semantics,
   failure surface (panic / SIGILL / SIGSEGV / runaway loop), and the
   seven fault types of the injector. *)

module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Kernel = Resilix_kernel.Kernel
module Memory = Resilix_kernel.Memory
module Sysif = Resilix_kernel.Sysif
module Api = Resilix_kernel.Sysif.Api
module Privilege = Resilix_proto.Privilege
module Isa = Resilix_vm.Isa
module Interp = Resilix_vm.Interp
module Fault = Resilix_vm.Fault

let all_priv =
  {
    Privilege.none with
    Privilege.ipc_to = Privilege.All;
    kcalls = Privilege.All;
    io_ports = [ (0, 0xFFFF) ];
    irqs = [ 1 ];
  }

let make_kernel () =
  let engine = Engine.create () in
  let kernel =
    Kernel.create ~engine ~trace:(Trace.create ()) ~rng:(Rng.create ~seed:3) ()
  in
  (engine, kernel)

(* Run [body] inside a process fiber and return its result. *)
let in_fiber ?(mem_kb = 64) body =
  let engine, kernel = make_kernel () in
  let result = ref None in
  Kernel.register_program kernel "t" (fun () -> result := Some (body ()));
  (match Kernel.spawn_dynamic kernel ~name:"t" ~program:"t" ~args:[] ~priv:all_priv ~mem_kb with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine ~until:60_000_000;
  (!result, kernel)

let run_program ?regs code =
  let regs = match regs with Some r -> r | None -> Array.make 8 0 in
  let result, _ =
    in_fiber (fun () ->
        let program = Interp.load ~base:0x1000 (Isa.assemble code) in
        let r0 = Interp.run program ~regs in
        (r0, Array.copy regs))
  in
  match result with Some r -> r | None -> Alcotest.fail "program did not finish"

let test_arithmetic () =
  (* sum 1..10 with a countdown loop *)
  let code =
    Isa.
      [
        Movi (R1, 10);
        Movi (R0, 0);
        Label "loop";
        Jz (R1, "done");
        Add (R0, R1);
        Addi (R1, -1);
        Jmp "loop";
        Label "done";
        Ret;
      ]
  in
  let r0, _ = run_program code in
  Alcotest.(check int) "sum 1..10" 55 r0

let test_memory_ops () =
  let code =
    Isa.
      [
        Movi (R1, 0x4000);
        Movi (R2, 0xDEAD);
        Store (R1, 0, R2);
        Load (R3, R1, 0);
        Mov (R0, R3);
        Storeb (R1, 8, R2);
        Loadb (R4, R1, 8);
        Ret;
      ]
  in
  let r0, regs = run_program code in
  Alcotest.(check int) "word store/load" 0xDEAD r0;
  Alcotest.(check int) "byte store/load truncates" 0xAD regs.(4)

let test_shifts_and_masks () =
  let code =
    Isa.[ Movi (R1, 0xF0F0); Shr (R1, 4); Andi (R1, 0xFF); Shl (R1, 8); Mov (R0, R1); Ret ]
  in
  let r0, _ = run_program code in
  Alcotest.(check int) "shr/andi/shl pipeline" 0x0F00 r0

let test_check_failure_is_catchable () =
  let result, _ =
    in_fiber (fun () ->
        let program = Interp.load ~base:0x1000 (Isa.assemble Isa.[ Movi (R0, 5); Chkeq (R0, 6); Ret ]) in
        match Interp.run program ~regs:(Array.make 8 0) with
        | _ -> "no trap"
        | exception Interp.Check_failed _ -> "check failed")
  in
  Alcotest.(check (option string)) "Chk failure raises Check_failed" (Some "check failed") result

let test_illegal_opcode_kills_sigill () =
  let _, kernel =
    in_fiber (fun () ->
        let image = Isa.assemble Isa.[ Nop; Ret ] in
        Bytes.set image 0 '\xEE' (* junk opcode *);
        let program = Interp.load ~base:0x1000 image in
        ignore (Interp.run program ~regs:(Array.make 8 0)))
  in
  Alcotest.(check bool) "killed by SIGILL" true
    (Trace.query (Kernel.trace kernel) ~pred:(fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Exit
             { status = Resilix_proto.Status.Killed Resilix_proto.Signal.Sig_ill; _ } ->
             true
         | _ -> false)
    <> [])

let test_wild_pointer_kills_sigsegv () =
  let _, kernel =
    in_fiber (fun () ->
        let code = Isa.[ Movi (R1, 0x7FFFFFF); Load (R0, R1, 0); Ret ] in
        let program = Interp.load ~base:0x1000 (Isa.assemble code) in
        ignore (Interp.run program ~regs:(Array.make 8 0)))
  in
  Alcotest.(check bool) "killed by SIGSEGV" true
    (Trace.query (Kernel.trace kernel) ~pred:(fun e ->
         match e.Trace.payload with
         | Resilix_obs.Event.Exit
             { status = Resilix_proto.Status.Killed Resilix_proto.Signal.Sig_segv; _ } ->
             true
         | _ -> false)
    <> [])

let test_runaway_loop_consumes_time_not_host () =
  (* An infinite VM loop must keep yielding virtual time (so heartbeat
     detection can catch it) rather than hanging the simulator. *)
  let engine, kernel = make_kernel () in
  Kernel.register_program kernel "spin" (fun () ->
      let code = Isa.[ Label "x"; Jmp "x" ] in
      let program = Interp.load ~base:0x1000 (Isa.assemble code) in
      ignore (Interp.run program ~regs:(Array.make 8 0)));
  (match
     Kernel.spawn_dynamic kernel ~name:"spin" ~program:"spin" ~args:[] ~priv:all_priv ~mem_kb:64
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine ~until:2_000_000 ~max_events:10_000_000;
  Alcotest.(check bool) "virtual clock advanced past 1s" true (Engine.now engine >= 1_000_000);
  Alcotest.(check bool) "process still alive (stuck)" true
    (Kernel.find_by_name kernel "spin" <> None)

let test_out_of_range_port_is_io_failure () =
  let result, _ =
    in_fiber (fun () ->
        (* No bus installed and the port is inside our privilege
           range, so the access is refused -> Io_failed. *)
        let code = Isa.[ In (R0, 0x123); Ret ] in
        let program = Interp.load ~base:0x1000 (Isa.assemble code) in
        match Interp.run program ~regs:(Array.make 8 0) with
        | _ -> "no trap"
        | exception Interp.Io_failed _ -> "io failed")
  in
  Alcotest.(check (option string)) "port failure raises Io_failed" (Some "io failed") result

(* --- fault injector --- *)

let demo_code =
  Isa.
    [
      Movi (R1, 16);
      Movi (R2, 0x4000);
      Label "loop";
      Jz (R1, "end");
      Load (R3, R2, 0);
      Store (R2, 4, R3);
      Addi (R2, 8);
      Addi (R1, -1);
      Jmp "loop";
      Label "end";
      Chkeq (R1, 0);
      Ret;
    ]

let with_image f =
  let result, _ =
    in_fiber (fun () ->
        let image = Isa.assemble demo_code in
        let program = Interp.load ~base:0x1000 image in
        let mem = Api.memory () in
        f mem program (Bytes.length image / Isa.instr_size))
  in
  match result with Some r -> r | None -> Alcotest.fail "fiber died"

let test_each_fault_type_mutates_image () =
  Array.iter
    (fun ft ->
      let changed =
        with_image (fun mem program insn_count ->
            let before = Memory.read mem ~addr:(Interp.base program) ~len:(insn_count * 8) in
            let rng = Rng.create ~seed:11 in
            match Fault.inject rng mem ~base:(Interp.base program) ~insn_count ft with
            | None -> false
            | Some _ ->
                let after = Memory.read mem ~addr:(Interp.base program) ~len:(insn_count * 8) in
                not (Bytes.equal before after))
      in
      Alcotest.(check bool) (Fault.to_string ft ^ " mutates the image") true changed)
    Fault.all

let test_invert_loop_flips_conditional () =
  let ok =
    with_image (fun mem program insn_count ->
        let rng = Rng.create ~seed:5 in
        match Fault.inject rng mem ~base:(Interp.base program) ~insn_count Fault.Invert_loop with
        | None -> false
        | Some desc ->
            (* Find the mutated instruction: it must decode as Jz or
               Jnz still (the condition flipped, not destroyed). *)
            ignore desc;
            let image = Memory.read mem ~addr:(Interp.base program) ~len:(insn_count * 8) in
            let rec any_cond i =
              if i >= insn_count then false
              else
                match Isa.decode image ~index:i with
                | Isa.D_jnz _ -> true (* original had only one Jz; a Jnz proves the flip *)
                | _ -> any_cond (i + 1)
                | exception Isa.Illegal_instruction _ -> any_cond (i + 1)
            in
            any_cond 0)
  in
  Alcotest.(check bool) "Jz became Jnz" true ok

let test_elide_becomes_nop () =
  let ok =
    with_image (fun mem program insn_count ->
        let rng = Rng.create ~seed:9 in
        let before = Memory.read mem ~addr:(Interp.base program) ~len:(insn_count * 8) in
        match Fault.inject rng mem ~base:(Interp.base program) ~insn_count Fault.Elide with
        | None -> false
        | Some _ ->
            let after = Memory.read mem ~addr:(Interp.base program) ~len:(insn_count * 8) in
            (* exactly one opcode byte changed, to NOP (0x01) *)
            let diffs = ref [] in
            for i = 0 to insn_count - 1 do
              if Bytes.get before (i * 8) <> Bytes.get after (i * 8) then diffs := i :: !diffs
            done;
            (match !diffs with
            | [ i ] -> Char.code (Bytes.get after (i * 8)) = 0x01
            | _ -> false))
  in
  Alcotest.(check bool) "elide rewrites one opcode to NOP" true ok

(* --- decode cache --- *)

(* Reference interpreter without a decode cache: every fetch copies
   the 8 encoded bytes out of process memory and decodes them.  The
   cached interpreter must agree with it. *)
let reference_run ?(fuel_slice = 32) ~base ~insn_count ~regs () =
  let mask32 v = v land 0xFFFF_FFFF in
  let mem = Api.memory () and ports = Api.ports () in
  let fetch_buf = Bytes.create Isa.instr_size in
  let fetch index =
    if index < 0 || index >= insn_count then
      raise (Sysif.Killed_exn (Resilix_proto.Status.Killed Resilix_proto.Signal.Sig_ill));
    Memory.blit_out mem ~addr:(base + (index * Isa.instr_size)) ~dst:fetch_buf ~dst_off:0
      ~len:Isa.instr_size;
    match Isa.decode fetch_buf ~index:0 with
    | d -> d
    | exception Isa.Illegal_instruction _ ->
        raise (Sysif.Killed_exn (Resilix_proto.Status.Killed Resilix_proto.Signal.Sig_ill))
  in
  let check_failed index detail = raise (Interp.Check_failed { index; detail }) in
  let pc = ref 0 and fuel = ref fuel_slice and running = ref true in
  while !running do
    decr fuel;
    if !fuel <= 0 then begin
      fuel := fuel_slice;
      Api.yield ~cost:1 ()
    end;
    let index = !pc in
    incr pc;
    match fetch index with
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
    | Isa.D_in (rd, port) -> (
        match ports.port_in port with
        | v -> regs.(rd) <- mask32 v
        | exception Sysif.Port_refused -> raise (Interp.Io_failed { port }))
    | Isa.D_out (port, rs) -> (
        match ports.port_out port regs.(rs) with
        | () -> ()
        | exception Sysif.Port_refused -> raise (Interp.Io_failed { port }))
    | Isa.D_jmp target -> pc := target
    | Isa.D_jz (rd, target) -> if regs.(rd) = 0 then pc := target
    | Isa.D_jnz (rd, target) -> if regs.(rd) <> 0 then pc := target
    | Isa.D_chkeq (rd, imm) ->
        if regs.(rd) <> mask32 imm then
          check_failed index (Printf.sprintf "r%d = %d, expected %d" rd regs.(rd) (mask32 imm))
    | Isa.D_chklt (rd, imm) ->
        if regs.(rd) >= mask32 imm then
          check_failed index (Printf.sprintf "r%d = %d, expected < %d" rd regs.(rd) (mask32 imm))
    | Isa.D_chknz rd -> if regs.(rd) = 0 then check_failed index (Printf.sprintf "r%d is zero" rd)
    | Isa.D_ret -> running := false
    | Isa.D_fail -> check_failed index "explicit fail"
  done;
  regs.(0)

let code_base = 0x1000

(* A random program plus byte writes into its code image: [at = None]
   writes land between runs (from inside the process), [Some t] ones
   land t microseconds after the process starts, whatever it is doing
   then (computing, yielding, blocked in a port access). *)
type scenario = {
  code : bytes;
  regs0 : int array;
  writes : (int option * int * int) list; (* at, image offset, byte *)
}

let valid_opcodes = List.filter (fun op -> Isa.opcode_info op <> None) (List.init 256 Fun.id)

let gen_scenario =
  let open QCheck.Gen in
  let* n = 2 -- 14 in
  let image_bytes = n * Isa.instr_size in
  let value =
    frequency
      [
        (4, -4 -- 40);
        (2, map (fun k -> code_base + k) (0 -- (image_bytes + 8)));
        (1, 0x4000 -- 0x4100);
        (1, int_bound 0x3FFF_FFFF);
      ]
  in
  let field = frequency [ (8, int_bound 7); (1, int_bound 255) ] in
  let insn =
    let* op = frequency [ (12, oneofl valid_opcodes); (1, int_bound 255) ] in
    let* rd = field and* rs = field in
    let* imm = frequency [ (3, value); (2, 0 -- n) ] in
    let b = Bytes.make Isa.instr_size '\000' in
    Bytes.set b 0 (Char.chr op);
    Bytes.set b 1 (Char.chr rd);
    Bytes.set b 2 (Char.chr rs);
    Bytes.set_int32_le b 4 (Int32.of_int imm);
    return b
  in
  let* code = map (Bytes.concat Bytes.empty) (list_repeat n insn) in
  let* regs0 = array_repeat 8 value in
  let write =
    let* at = opt (0 -- 300) in
    let* off = 0 -- (image_bytes - 1) in
    let* byte = frequency [ (1, int_bound 255); (1, oneofl valid_opcodes) ] in
    return (at, off, byte)
  in
  let* writes = list_size (0 -- 4) write in
  return { code; regs0; writes }

let print_scenario sc =
  String.concat "\n"
    (Isa.disassemble sc.code
    @ [ "regs: " ^ String.concat " " (Array.to_list (Array.map string_of_int sc.regs0)) ]
    @ List.map
        (fun (at, off, byte) ->
          Printf.sprintf "write 0x%02x at +%d %s" byte off
            (match at with None -> "between runs" | Some t -> Printf.sprintf "at t+%dus" t))
        sc.writes)

(* Run the scenario's program three times in one process (the writes
   marked [None] go in after the first run), with one interpreter, and
   record everything observable: each run's result, registers and
   finishing time, the final register file (for a run killed or still
   looping at the horizon) and the kernel's trace, which holds the
   process's exit status and time. *)
let observe ~interp sc =
  let engine, kernel = make_kernel () in
  Kernel.set_bus kernel
    ~read:(fun port -> if port < 0x40 then port * 3 else raise Sysif.Port_refused)
    ~write:(fun port _ -> if port >= 0x40 then raise Sysif.Port_refused);
  let insn_count = Bytes.length sc.code / Isa.instr_size in
  let regs = Array.copy sc.regs0 in
  let runs = ref [] and mem = ref None in
  Kernel.register_program kernel "vm" (fun () ->
      let program = Interp.load ~base:code_base sc.code in
      mem := Some (Api.memory ());
      let run () =
        Array.blit sc.regs0 0 regs 0 8;
        let result =
          match
            match interp with
            | `Cached -> Interp.run program ~regs
            | `Reference -> reference_run ~base:code_base ~insn_count ~regs ()
          with
          | r0 -> Printf.sprintf "ret %d" r0
          | exception Interp.Check_failed { index; detail } ->
              Printf.sprintf "check failed at %d: %s" index detail
          | exception Interp.Io_failed { port } -> Printf.sprintf "io failed on %d" port
        in
        runs := (Api.now (), result, Array.copy regs) :: !runs
      in
      run ();
      List.iter
        (fun (at, off, byte) ->
          if at = None then Memory.set_u8 (Api.memory ()) (code_base + off) byte)
        sc.writes;
      run ();
      run ());
  (match
     Kernel.spawn_dynamic kernel ~name:"vm" ~program:"vm" ~args:[] ~priv:all_priv ~mem_kb:64
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  let start = Kernel.default_costs.Kernel.spawn + 100 in
  List.iter
    (fun (at, off, byte) ->
      match at with
      | None -> ()
      | Some t ->
          ignore
            (Engine.schedule engine ~after:(start + t) (fun () ->
                 Option.iter (fun m -> Memory.set_u8 m (code_base + off) byte) !mem)))
    sc.writes;
  Engine.run engine ~until:(start + 500);
  (List.rev !runs, Array.to_list regs, Engine.now engine, Trace.events (Kernel.trace kernel))

let prop_decode_cache_matches_reference =
  QCheck.Test.make ~name:"decode cache = decode-per-fetch under code writes" ~count:300
    (QCheck.make ~print:print_scenario gen_scenario)
    (fun sc -> observe ~interp:`Cached sc = observe ~interp:`Reference sc)

(* Run [body] (given the loaded program and process memory) inside a
   process, returning its result and how the process exited. *)
let with_program ?read code body =
  let engine, kernel = make_kernel () in
  Option.iter (fun read -> Kernel.set_bus kernel ~read ~write:(fun _ _ -> ())) read;
  let result = ref None in
  Kernel.register_program kernel "t" (fun () ->
      let program = Interp.load ~base:code_base (Isa.assemble code) in
      result := Some (body program (Api.memory ())));
  (match Kernel.spawn_dynamic kernel ~name:"t" ~program:"t" ~args:[] ~priv:all_priv ~mem_kb:64 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine ~until:60_000_000;
  let exits =
    List.filter_map
      (fun e ->
        match e.Trace.payload with
        | Resilix_obs.Event.Exit { status; _ } -> Some status
        | _ -> None)
      (Trace.events (Kernel.trace kernel))
  in
  (!result, exits)

let test_fault_during_devio_seen_at_next_fetch () =
  (* A warm cache holds [movi r0, 7] for slot 1; the injector elides
     it while the program is blocked in the [in] of slot 0. *)
  let mem = ref None in
  let read _ =
    Option.iter
      (fun m ->
        ignore
          (Fault.inject (Rng.create ~seed:1) m ~base:(code_base + Isa.instr_size) ~insn_count:1
             Fault.Stale_param))
      !mem;
    0
  in
  let result, _ =
    with_program ~read
      Isa.[ In (R1, 0x10); Movi (R0, 7); Ret ]
      (fun program m ->
        let first = Interp.run program ~regs:(Array.make 8 0) in
        mem := Some m;
        let second = Interp.run program ~regs:(Array.make 8 0) in
        (first, second))
  in
  Alcotest.(check (option (pair int int))) "movi elided mid-call" (Some (7, 0)) result

let test_store_into_own_image () =
  (* Two passes over a loop whose body rewrites the immediate of its
     own first instruction: the second pass must see the new value. *)
  let code =
    Isa.
      [
        Movi (R3, 2);
        Movi (R1, code_base);
        Label "loop";
        Movi (R0, 1);
        Add (R4, R0);
        Movi (R2, 5);
        Store (R1, (2 * 8) + 4, R2);
        Addi (R3, -1);
        Jnz (R3, "loop");
        Mov (R0, R4);
        Ret;
      ]
  in
  let result, _ = with_program code (fun program _ -> Interp.run program ~regs:(Array.make 8 0)) in
  Alcotest.(check (option int)) "1 on the first pass, 5 on the second" (Some 6) result

let test_corrupted_cached_opcode_sigill () =
  let result, exits =
    with_program
      Isa.[ Movi (R0, 1); Ret ]
      (fun program m ->
        ignore (Interp.run program ~regs:(Array.make 8 0));
        Memory.set_u8 m code_base 0xEE;
        Interp.run program ~regs:(Array.make 8 0))
  in
  Alcotest.(check (option int)) "second run never returns" None result;
  Alcotest.(check bool) "killed by SIGILL" true
    (exits = [ Resilix_proto.Status.Killed Resilix_proto.Signal.Sig_ill ])

(* --- the direct port path --- *)

(* Process "t" starts here. *)
let start = Kernel.default_costs.Kernel.spawn + 100

let spawn_t kernel body =
  Kernel.register_program kernel "t" body;
  match Kernel.spawn_dynamic kernel ~name:"t" ~program:"t" ~args:[] ~priv:all_priv ~mem_kb:64 with
  | Ok ep -> ep
  | Error _ -> Alcotest.fail "spawn"

(* A kernel whose bus reads each port's number, running process "t"
   (see [spawn_t]). *)
let port_rig body =
  let engine, kernel = make_kernel () in
  Kernel.set_bus kernel ~read:Fun.id ~write:(fun _ _ -> ());
  (engine, kernel, spawn_t kernel body)

(* Process "t"'s exits, with their times. *)
let exits_of kernel =
  List.filter_map
    (fun e ->
      match e.Trace.payload with
      | Resilix_obs.Event.Exit { name = "t"; status; _ } -> Some (e.Trace.time, status)
      | _ -> None)
    (Trace.events (Kernel.trace kernel))

let run_code code () =
  let program = Interp.load ~base:code_base (Isa.assemble code) in
  ignore (Interp.run program ~regs:(Array.make 8 0))

(* A device model that raises during an access fails the simulation
   as it did when the access was a kernel call: out of [Engine.run],
   not as a panic of the driver that made it. *)
let test_device_exception_escapes () =
  List.iter
    (fun (label, code) ->
      let engine, kernel = make_kernel () in
      Kernel.set_bus kernel
        ~read:(fun _ -> failwith "device on fire")
        ~write:(fun _ _ -> failwith "device on fire");
      ignore (spawn_t kernel (run_code code));
      (match Engine.run engine ~until:1_000_000 with
      | () -> Alcotest.fail (label ^ ": Engine.run returned")
      | exception Failure msg -> Alcotest.(check string) (label ^ ": raised") "device on fire" msg);
      Alcotest.(check int) (label ^ ": no exit") 0 (List.length (exits_of kernel)))
    [ ("read", Isa.[ In (R0, 0x10); Ret ]); ("write", Isa.[ Out (0x10, R0); Ret ]) ]

(* A privctl between two runs applies to the second run's access,
   through the handle the program took when it was attached. *)
let test_privctl_applies_to_next_access () =
  List.iter
    (fun (label, priv') ->
      let seen = ref [] in
      let engine, kernel, ep =
        port_rig (fun () ->
            let program = Interp.load ~base:code_base (Isa.assemble Isa.[ In (R0, 0x300); Ret ]) in
            let attempt () =
              match Interp.run program ~regs:(Array.make 8 0) with
              | r0 -> seen := Printf.sprintf "read 0x%x" r0 :: !seen
              | exception Interp.Io_failed { port } ->
                  seen := Printf.sprintf "refused 0x%x" port :: !seen
            in
            attempt ();
            Api.sleep 100_000;
            attempt ())
      in
      Kernel.register_program kernel "admin" (fun () ->
          Api.sleep 50_000;
          match Api.privctl ep priv' with Ok () -> () | Error _ -> Alcotest.fail "privctl");
      ignore
        (Kernel.spawn_dynamic kernel ~name:"admin" ~program:"admin" ~args:[] ~priv:all_priv
           ~mem_kb:64);
      Engine.run engine ~until:1_000_000;
      Alcotest.(check (list string)) label [ "read 0x300"; "refused 0x300" ] (List.rev !seen))
    [
      ("devio removed", { all_priv with Privilege.kcalls = Privilege.Only [ "safecopy" ] });
      ("ports narrowed", { all_priv with Privilege.io_ports = [ (0x301, 0xFFFF) ] });
    ]

(* An access returns in place only when nothing else is due within its
   2 us; otherwise it blocks, the other event fires, and the access
   returns at the same instant.  [Engine.inline_counts] is pinned from
   when the access was a kernel call. *)
let test_port_access_blocks_for_due_event () =
  List.iter
    (fun (label, other_at, inline_counts) ->
      let log = ref [] in
      let engine, _, _ =
        port_rig (fun () ->
            run_code Isa.[ In (R0, 0x10); Ret ] ();
            log := ("t", Api.now ()) :: !log)
      in
      Option.iter
        (fun at ->
          ignore
            (Engine.schedule engine ~after:at (fun () ->
                 log := ("other", Engine.now engine) :: !log)))
        other_at;
      Engine.run engine;
      let other = match other_at with Some at -> [ ("other", at) ] | None -> [] in
      Alcotest.(check (list (pair string int)))
        (label ^ ": order") (other @ [ ("t", start + 2) ]) (List.rev !log);
      Alcotest.(check (pair int int))
        (label ^ ": inline counts") inline_counts (Engine.inline_counts engine))
    [ ("alone", None, (1, 1)); ("event due", Some (start + 1), (0, 3)) ]

(* A kill that lands while the access is in the device unwinds the
   driver at that access: the write after it never happens. *)
let test_kill_pending_at_port_access () =
  let sigkill = Resilix_proto.Status.Killed Resilix_proto.Signal.Sig_kill in
  let engine, kernel = make_kernel () in
  let ep = ref None and written = ref [] in
  Kernel.set_bus kernel
    ~read:(fun _ ->
      Option.iter (fun ep -> ignore (Kernel.kill kernel ep sigkill)) !ep;
      7)
    ~write:(fun port v -> written := (port, v) :: !written);
  ep := Some (spawn_t kernel (run_code Isa.[ In (R0, 0x10); Out (0x20, R0); Ret ]));
  Engine.run engine;
  Alcotest.(check (list (pair int int))) "nothing written" [] !written;
  Alcotest.(check bool) "killed at the access's return" true
    (exits_of kernel = [ (start + 2, sigkill) ])

(* A warm run of a 4-instruction program with one port read allocates
   no more than a handful of words: no effect, closure or result per
   run or per access (it was about 35 words with one kernel call per
   access and a memory lookup per run). *)
let test_port_read_run_allocation () =
  let words = ref 0. in
  let result, _ =
    with_program ~read:(fun _ -> 5)
      Isa.[ In (R1, 0x10); Andi (R1, 1); Mov (R0, R1); Ret ]
      (fun program _ ->
        let regs = Array.make 8 0 in
        ignore (Interp.run program ~regs);
        let before = Gc.minor_words () in
        let r0 = Interp.run program ~regs in
        words := Gc.minor_words () -. before;
        r0)
  in
  Alcotest.(check (option int)) "result" (Some 1) result;
  if Sys.backend_type = Sys.Native then
    Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 8" !words) true (!words <= 8.)

let prop_assemble_length =
  QCheck.Test.make ~name:"assemble emits 8 bytes per real instruction" ~count:100
    QCheck.(int_range 0 50)
    (fun n ->
      let code = List.concat (List.init n (fun i -> Isa.[ Movi (R1, i); Label (string_of_int i) ])) in
      Bytes.length (Isa.assemble code) = n * Isa.instr_size)

let prop_corrupted_image_never_hangs_decode =
  (* Decoding arbitrary bytes either yields an instruction or raises
     Illegal_instruction — never loops or crashes the host. *)
  QCheck.Test.make ~name:"decode is total on junk" ~count:500
    QCheck.(string_of_size (QCheck.Gen.return 8))
    (fun junk ->
      let b = Bytes.of_string junk in
      match Isa.decode b ~index:0 with
      | _ -> true
      | exception Isa.Illegal_instruction _ -> true)

let test_disassembler () =
  let image =
    Isa.assemble Isa.[ Movi (R1, 7); Load (R2, R1, 4); Out (0x305, R2); Jz (R1, "end"); Label "end"; Ret ]
  in
  Alcotest.(check (list string))
    "disassembly"
    [ "movi r1, 7"; "load r2, [r1+4]"; "out 0x305, r2"; "jz r1, 4"; "ret" ]
    (Isa.disassemble image);
  Bytes.set image 0 '\xEE';
  Alcotest.(check string) "illegal rendering" "<illegal 0xEE>" (Isa.disassemble_one image ~index:0)

(* The driver-VM runtime ({!Resilix_drivers.Image}) in a bare kernel:
   [body] runs as driver "t" with the given argv and port range, and
   the test reads how the process ended. *)
module Image = Resilix_drivers.Image

let runtime_run ?(args = [ "0"; "1" ]) ?(ports = (0, 0xFFFF)) body =
  let engine, kernel = make_kernel () in
  Kernel.register_program kernel "t" body;
  let priv = { all_priv with Privilege.io_ports = [ ports ] } in
  (match Kernel.spawn_dynamic kernel ~name:"t" ~program:"t" ~args ~priv ~mem_kb:64 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "spawn");
  Engine.run engine ~until:60_000_000;
  List.filter_map
    (fun e ->
      match e.Trace.payload with
      | Resilix_obs.Event.Exit { name = "t"; status; _ } -> Some status
      | _ -> None)
    (Trace.events (Kernel.trace kernel))

let one_program name code ~base:_ = Image.assemble ~origin:0x1000 [ (name, code) ]

(* Boot a one-program image ("p") and run it once. *)
let boot_and_exec code () =
  let vm = Image.boot ~driver:"t" (one_program "p" code) in
  ignore (Image.exec vm (Image.program vm "p"))

let check_exit name expected statuses =
  Alcotest.(check (list string))
    name [ expected ]
    (List.map (Format.asprintf "%a" Resilix_proto.Status.pp_exit_status) statuses)

let test_runtime_check_panics () =
  check_exit "panic text"
    {|(Status.Panicked "t: consistency check failed in p: r0 = 5, expected 6")|}
    (runtime_run (boot_and_exec Isa.[ Movi (R0, 5); Chkeq (R0, 6); Ret ]))

let test_runtime_port_panics () =
  check_exit "panic text"
    {|(Status.Panicked "t: unexpected I/O failure on port 512 in p")|}
    (runtime_run ~ports:(0x100, 0x10F) (boot_and_exec Isa.[ In (R0, 0x200); Ret ]))

let test_runtime_args_panic () =
  check_exit "panic text" {|(Status.Panicked "t: expected args [base; irq]")|}
    (runtime_run ~args:[] (boot_and_exec Isa.[ Ret ]))

(* [exec] passes r1..r4, zeroes every other register, and leaves the
   register file readable through [reg]. *)
let test_runtime_exec_registers () =
  let sum = ref 0 and r5 = ref 0 in
  let statuses =
    runtime_run (fun () ->
        let image ~base:_ =
          Image.assemble ~origin:0x1000
            Isa.
              [
                ("dirty", [ Movi (R5, 99); Movi (R6, 7); Movi (R7, 3); Ret ]);
                ( "sum",
                  [ Mov (R0, R1); Add (R0, R2); Add (R0, R3); Add (R0, R4); Add (R0, R5); Add (R0, R6);
                    Add (R0, R7); Ret ] );
              ]
        in
        let vm = Image.boot ~driver:"t" image in
        ignore (Image.exec vm (Image.program vm "dirty") ~r1:1);
        r5 := Image.reg vm 5;
        sum := Image.exec vm (Image.program vm "sum") ~r1:1 ~r2:2 ~r3:3 ~r4:4)
  in
  check_exit "clean exit" "(Status.Exited 0)" statuses;
  Alcotest.(check int) "reg reads the last exec" 99 !r5;
  Alcotest.(check int) "r1..r4 passed, the rest zeroed" 10 !sum

(* [wait_ready] polls every 10 ms until the busy bits clear: the status
   program here counts its calls in memory and reports busy (r0 <> 0)
   for the first two. *)
let test_runtime_wait_ready () =
  let polls = ref 0 and waited = ref 0 in
  let statuses =
    runtime_run (fun () ->
        let status =
          Isa.
            [
              Movi (R1, 0x8000); Load (R2, R1, 0); Addi (R2, 1); Store (R1, 0, R2); Movi (R0, 3);
              Sub (R0, R2); Ret;
            ]
        in
        let vm = Image.boot ~driver:"t" (one_program "status" status) in
        let start = Api.now () in
        Image.wait_ready vm (Image.program vm "status") ~busy:0x3;
        waited := Api.now () - start;
        polls := Image.reg vm 2)
  in
  check_exit "clean exit" "(Status.Exited 0)" statuses;
  Alcotest.(check int) "returned on the third poll" 3 !polls;
  Alcotest.(check bool) "slept between polls" true (!waited >= 20_000)

let tests =
  [
    Alcotest.test_case "arithmetic loop" `Quick test_arithmetic;
    Alcotest.test_case "disassembler" `Quick test_disassembler;
    Alcotest.test_case "memory ops" `Quick test_memory_ops;
    Alcotest.test_case "shifts and masks" `Quick test_shifts_and_masks;
    Alcotest.test_case "consistency check raises" `Quick test_check_failure_is_catchable;
    Alcotest.test_case "illegal opcode kills with SIGILL" `Quick test_illegal_opcode_kills_sigill;
    Alcotest.test_case "wild pointer kills with SIGSEGV" `Quick test_wild_pointer_kills_sigsegv;
    Alcotest.test_case "runaway loop yields virtual time" `Quick test_runaway_loop_consumes_time_not_host;
    Alcotest.test_case "bad port access raises Io_failed" `Quick test_out_of_range_port_is_io_failure;
    Alcotest.test_case "all fault types mutate the image" `Quick test_each_fault_type_mutates_image;
    Alcotest.test_case "invert-loop flips Jz/Jnz" `Quick test_invert_loop_flips_conditional;
    Alcotest.test_case "elide rewrites to NOP" `Quick test_elide_becomes_nop;
    QCheck_alcotest.to_alcotest prop_assemble_length;
    QCheck_alcotest.to_alcotest prop_corrupted_image_never_hangs_decode;
    QCheck_alcotest.to_alcotest prop_decode_cache_matches_reference;
    Alcotest.test_case "fault during devio seen at next fetch" `Quick
      test_fault_during_devio_seen_at_next_fetch;
    Alcotest.test_case "store into own image takes effect" `Quick test_store_into_own_image;
    Alcotest.test_case "opcode corrupted after caching: SIGILL" `Quick
      test_corrupted_cached_opcode_sigill;
    Alcotest.test_case "device exception escapes the port access" `Quick
      test_device_exception_escapes;
    Alcotest.test_case "privctl applies to the next port access" `Quick
      test_privctl_applies_to_next_access;
    Alcotest.test_case "port access blocks for a due event" `Quick
      test_port_access_blocks_for_due_event;
    Alcotest.test_case "kill pending at a port access" `Quick test_kill_pending_at_port_access;
    Alcotest.test_case "port-read run allocation" `Quick test_port_read_run_allocation;
    Alcotest.test_case "runtime: failed check panics" `Quick test_runtime_check_panics;
    Alcotest.test_case "runtime: denied port panics" `Quick test_runtime_port_panics;
    Alcotest.test_case "runtime: missing args panic" `Quick test_runtime_args_panic;
    Alcotest.test_case "runtime: exec registers" `Quick test_runtime_exec_registers;
    Alcotest.test_case "runtime: wait_ready polls until ready" `Quick test_runtime_wait_ready;
  ]
