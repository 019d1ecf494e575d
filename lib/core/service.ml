module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown

let rs_request msg =
  match Api.sendrec Wellknown.rs msg with
  | Ok (Sysif.Rx_msg { body = Message.Rs_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let up spec = rs_request (Message.Rs_up spec)
let down name = rs_request (Message.Rs_down { name })
let restart name = rs_request (Message.Rs_restart { name })
let refresh ?program name = rs_request (Message.Rs_refresh { name; program })

let lookup name =
  match Api.sendrec Wellknown.rs (Message.Rs_lookup { name }) with
  | Ok (Sysif.Rx_msg { body = Message.Rs_lookup_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

(* The degradation contract's application-side query: ask DS which
   components currently have an open circuit breaker. *)
let degraded_components () =
  match Api.sendrec Wellknown.ds Message.Ds_degraded_list with
  | Ok (Sysif.Rx_msg { body = Message.Ds_degraded_list_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let wait_until_up name =
  let deadline = Api.now () + 5_000_000 in
  let rec poll () =
    match lookup name with
    | Ok (ep, _pid) -> Ok ep
    | Error (Errno.E_again | Errno.E_noent) ->
        if Api.now () >= deadline then Error Errno.E_timeout
        else begin
          Api.sleep 10_000;
          poll ()
        end
    | Error e -> Error e
  in
  poll ()
