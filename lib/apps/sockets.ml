module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown

(* Separate bounce buffer so socket and file I/O can interleave. *)
let buf_addr = 0x12000
let buf_size = 61440

let rpc msg reply = Api.call Wellknown.inet msg reply
let in_reply = function Message.In_reply { result } -> Some result | _ -> None
let io_reply = function Message.In_io_reply { result } -> Some result | _ -> None

let socket proto =
  rpc (Message.In_socket { proto }) (function
    | Message.In_socket_reply { result } -> Some result
    | _ -> None)

let connect sock ~addr ~port = rpc (Message.In_connect { sock; addr; port }) in_reply
let listen ?(backlog = 16) sock ~port = rpc (Message.In_listen { sock; port; backlog }) in_reply

let accept sock =
  rpc (Message.In_accept { sock }) (function
    | Message.In_accept_reply { result } -> Some result
    | _ -> None)

let with_grant ~len ~access f = Api.with_grant ~for_:Wellknown.inet ~base:buf_addr ~len ~access f

let send_all sock data =
  let total = Bytes.length data in
  let rec chunks off =
    if off >= total then Ok ()
    else begin
      let len = min buf_size (total - off) in
      Memory.blit_in (Api.memory ()) ~addr:buf_addr ~src:data ~src_off:off ~len;
      (* [Result.map] keeps the request out of tail position.  With it
         in tail position the storm workload ran ~13% slower on the
         host: the shallower worker stacks stopped pinning the top of
         glibc's heap, which was then trimmed and re-faulted (~20x the
         minor page faults).  Virtual time is the same either way. *)
      match
        with_grant ~len ~access:Sysif.Read_only (fun grant ->
            Result.map ignore (rpc (Message.In_send { sock; grant; len }) io_reply))
      with
      | Ok () -> chunks (off + len)
      | Error e -> Error e
    end
  in
  chunks 0

let recv sock ~len =
  let len = min len buf_size in
  with_grant ~len ~access:Sysif.Write_only (fun grant ->
      Result.map
        (fun n -> Memory.read (Api.memory ()) ~addr:buf_addr ~len:n)
        (rpc (Message.In_recv { sock; grant; len }) io_reply))

let sendto sock ~addr ~port data =
  let len = Bytes.length data in
  if len > buf_size then invalid_arg "Sockets.sendto: datagram too large";
  Memory.write (Api.memory ()) ~addr:buf_addr data;
  with_grant ~len ~access:Sysif.Read_only (fun grant ->
      rpc (Message.In_sendto { sock; addr; port; grant; len }) io_reply)

let recvfrom sock ~len =
  let len = min len buf_size in
  with_grant ~len ~access:Sysif.Write_only (fun grant ->
      Result.map
        (fun (n, addr, port) -> (Memory.read (Api.memory ()) ~addr:buf_addr ~len:n, addr, port))
        (rpc (Message.In_recvfrom { sock; grant; len }) (function
          | Message.In_recvfrom_reply { result } -> Some result
          | _ -> None)))

let close sock = rpc (Message.In_close { sock }) in_reply
