module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown

let rs_request msg =
  Api.call Wellknown.rs msg (function Message.Rs_reply { result } -> Some result | _ -> None)

let up spec = rs_request (Message.Rs_up spec)
let down name = rs_request (Message.Rs_down { name })
let restart name = rs_request (Message.Rs_restart { name })
let refresh ?program name = rs_request (Message.Rs_refresh { name; program })

let lookup name =
  Api.call Wellknown.rs (Message.Rs_lookup { name }) (function
    | Message.Rs_lookup_reply { result } -> Some result
    | _ -> None)

(* The degradation contract's application-side query: ask DS which
   components currently have an open circuit breaker. *)
let degraded_components () =
  Api.call Wellknown.ds Message.Ds_degraded_list (function
    | Message.Ds_degraded_list_reply { result } -> Some result
    | _ -> None)

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
