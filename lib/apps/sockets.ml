module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown

(* Separate bounce buffer so socket and file I/O can interleave. *)
let buf_addr = 0x12000
let buf_size = 61440

let rpc msg =
  match Api.sendrec Wellknown.inet msg with
  | Ok (Sysif.Rx_msg { body; _ }) -> Ok body
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let socket proto =
  match rpc (Message.In_socket { proto }) with
  | Ok (Message.In_socket_reply { result }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let connect sock ~addr ~port =
  match rpc (Message.In_connect { sock; addr; port }) with
  | Ok (Message.In_reply { result }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let listen ?(backlog = 16) sock ~port =
  match rpc (Message.In_listen { sock; port; backlog }) with
  | Ok (Message.In_reply { result }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let accept sock =
  match rpc (Message.In_accept { sock }) with
  | Ok (Message.In_accept_reply { result }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let with_grant ~len ~access f =
  match Api.grant_create ~for_:Wellknown.inet ~base:buf_addr ~len ~access with
  | Error e -> Error e
  | Ok g ->
      let r = f g in
      ignore (Api.grant_revoke g);
      r

let send_all sock data =
  let total = Bytes.length data in
  let rec chunks off =
    if off >= total then Ok ()
    else begin
      let len = min buf_size (total - off) in
      Memory.blit_in (Api.memory ()) ~addr:buf_addr ~src:data ~src_off:off ~len;
      match
        with_grant ~len ~access:Sysif.Read_only (fun grant ->
            match rpc (Message.In_send { sock; grant; len }) with
            | Ok (Message.In_io_reply { result }) -> result
            | Ok _ -> Error Errno.E_io
            | Error e -> Error e)
      with
      | Ok _ -> chunks (off + len)
      | Error e -> Error e
    end
  in
  chunks 0

let recv sock ~len =
  let len = min len buf_size in
  with_grant ~len ~access:Sysif.Write_only (fun grant ->
      match rpc (Message.In_recv { sock; grant; len }) with
      | Ok (Message.In_io_reply { result = Ok n }) ->
          Ok (Memory.read (Api.memory ()) ~addr:buf_addr ~len:n)
      | Ok (Message.In_io_reply { result = Error e }) -> Error e
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let sendto sock ~addr ~port data =
  let len = Bytes.length data in
  if len > buf_size then invalid_arg "Sockets.sendto: datagram too large";
  Memory.write (Api.memory ()) ~addr:buf_addr data;
  with_grant ~len ~access:Sysif.Read_only (fun grant ->
      match rpc (Message.In_sendto { sock; addr; port; grant; len }) with
      | Ok (Message.In_io_reply { result }) -> result
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let recvfrom sock ~len =
  let len = min len buf_size in
  with_grant ~len ~access:Sysif.Write_only (fun grant ->
      match rpc (Message.In_recvfrom { sock; grant; len }) with
      | Ok (Message.In_recvfrom_reply { result = Ok (n, addr, port) }) ->
          Ok (Memory.read (Api.memory ()) ~addr:buf_addr ~len:n, addr, port)
      | Ok (Message.In_recvfrom_reply { result = Error e }) -> Error e
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let close sock =
  match rpc (Message.In_close { sock }) with
  | Ok (Message.In_reply { result }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e
