(* Regression test: a syscall whose return is the engine's next event
   resumes the caller in place, inside the kernel's effect handler.
   That resume must stay a tail call, or every inlined return adds host
   stack frames.  One process makes [yields] back-to-back [Api.yield]s
   with nothing else queued, so every return inlines; the run must
   finish (no [Stack_overflow]) with the loop taking exactly
   [yields * cost] µs of virtual time. *)

module Engine = Resilix_sim.Engine
module Kernel = Resilix_kernel.Kernel
module Api = Resilix_kernel.Sysif.Api

let yields = 3_000_000
let cost = 1

let () =
  (* 8 MB of stack: enough for any fixed depth, far too little for one
     frame per return. *)
  Gc.set { (Gc.get ()) with Gc.stack_limit = 1_000_000 };
  let engine = Engine.create () in
  let kernel =
    Kernel.create ~engine ~trace:(Resilix_sim.Trace.create ())
      ~rng:(Resilix_sim.Rng.create ~seed:1) ()
  in
  let returned = ref 0 and started = ref (-1) and ended = ref (-1) in
  Kernel.register_program kernel "yielder" (fun () ->
      started := Api.now ();
      for _ = 1 to yields do
        Api.yield ~cost ();
        incr returned
      done;
      ended := Api.now ());
  (match
     Kernel.spawn_dynamic kernel ~name:"yielder" ~program:"yielder" ~args:[]
       ~priv:Resilix_proto.Privilege.none ~mem_kb:4
   with
  | Ok _ -> ()
  | Error _ -> failwith "spawn failed");
  let failure =
    match Engine.run engine with
    | () ->
        let inlined, _queued = Engine.inline_counts engine in
        if !returned <> yields then Some (Printf.sprintf "only %d yields returned" !returned)
        else if !ended - !started <> yields * cost then
          Some (Printf.sprintf "loop took %d us, expected %d" (!ended - !started) (yields * cost))
        else if Engine.now engine <> !ended then
          Some (Printf.sprintf "final clock %d, loop ended at %d" (Engine.now engine) !ended)
        else if inlined < yields then
          Some (Printf.sprintf "only %d of %d returns inlined" inlined yields)
        else None
    | exception e -> Some (Printexc.to_string e)
  in
  match failure with
  | None -> print_endline "deep resume: ok"
  | Some msg ->
      prerr_endline ("deep resume: " ^ msg);
      exit 1
