(* Dynamic update (the paper's Sec. 5.1 defect class 6): replace a
   running driver with a patched binary, on the fly, without a reboot
   — "such dynamic updates ... can significantly increase system
   availability".

   Run with:  dune exec examples/dynamic_update.exe *)

module System = Resilix_system.System
module Kernel = Resilix_kernel.Kernel
module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Privilege = Resilix_proto.Privilege
module Spec = Resilix_proto.Spec
module Status = Resilix_proto.Status
module Driver_lib = Resilix_drivers.Driver_lib
module Span = Resilix_obs.Span
module Service = Resilix_core.Service

(* A trivial versioned "driver": answers the "version" ioctl. *)
let versioned version () =
  Driver_lib.run_dev
    {
      Driver_lib.default_dev_handlers with
      Driver_lib.dh_ioctl =
        (fun ~src:_ ~minor:_ ~op ~arg:_ ->
          if String.equal op "version" then Driver_lib.Reply (Ok version)
          else Driver_lib.Reply (Error Errno.E_inval));
    }

let query_version () =
  match Service.lookup "svc.widget" with
  | Error _ -> -1
  | Ok (ep, _) -> (
      match Api.sendrec ep (Message.Dev_ioctl { minor = 0; op = "version"; arg = 0 }) with
      | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result = Ok v }; _ }) -> v
      | _ -> -1)

let () =
  let t = System.boot () in
  (* Two versions of the driver binary in the program registry. *)
  Kernel.register_program t.System.kernel "widget-v1" (versioned 1);
  Kernel.register_program t.System.kernel "widget-v2" (versioned 2);
  let spec =
    Spec.make ~name:"svc.widget" ~program:"widget-v1"
      ~privileges:(Privilege.driver ~ipc_to:[ "vfs" ] ~io_ports:[] ~irqs:[])
      ~policy:"generic" ~mem_kb:64 ()
  in
  System.start_services t [ spec ];
  let log = ref [] in
  let done_flag = ref false in
  ignore
    (System.spawn_app t ~name:"admin"
       ~priv:{ Privilege.app with Privilege.ipc_to = Privilege.All }
       (fun () ->
         log := Printf.sprintf "running version: %d" (query_version ()) :: !log;
         (* `service refresh` with the patched binary. *)
         (match Service.refresh ~program:"widget-v2" "svc.widget" with
         | Ok () -> log := "refresh accepted (SIGTERM sent, new binary staged)" :: !log
         | Error e -> log := ("refresh failed: " ^ Errno.to_string e) :: !log);
         let rec wait n =
           if n = 0 then ()
           else begin
             Api.sleep 100_000;
             let v = query_version () in
             if v = 2 then log := "running version: 2 (update live)" :: !log else wait (n - 1)
           end
         in
         wait 50;
         done_flag := true));
  ignore (System.run_until t ~timeout:60_000_000 (fun () -> !done_flag));
  List.iter print_endline (List.rev !log);
  List.iter
    (fun s ->
      Printf.printf "RS recorded: defect class %d (%s)%s\n"
        (Status.defect_number s.Span.defect)
        (Status.defect_name s.Span.defect)
        (match Span.total_us s with
        | Some us ->
            Printf.sprintf ", downtime %.1f ms — no exponential backoff for updates"
              (float_of_int us /. 1e3)
        | None -> ""))
    (Span.spans t.System.spans)
