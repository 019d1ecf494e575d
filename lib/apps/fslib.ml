module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown

(* Per-process bounce buffer for VFS data. *)
let buf_addr = 0x2000
let buf_size = 61440

let open_file ?(wr = false) ?(create = false) ?(trunc = false) path =
  match
    Api.sendrec Wellknown.vfs (Message.Vfs_open { path; flags = { Message.wr; create; trunc } })
  with
  | Ok (Sysif.Rx_msg { body = Message.Vfs_open_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let with_grant ~for_ ~len ~access f =
  match Api.grant_create ~for_ ~base:buf_addr ~len ~access with
  | Error e -> Error e
  | Ok g ->
      let r = f g in
      ignore (Api.grant_revoke g);
      r

let read_with fd ~len f =
  let len = min len buf_size in
  with_grant ~for_:Wellknown.vfs ~len ~access:Sysif.Write_only (fun grant ->
      match Api.sendrec Wellknown.vfs (Message.Vfs_read { fd; grant; len }) with
      | Ok (Sysif.Rx_msg { body = Message.Vfs_io_reply { result = Ok n }; _ }) ->
          Ok (Memory.view (Api.memory ()) ~addr:buf_addr ~len:n (fun buf off -> f buf off n))
      | Ok (Sysif.Rx_msg { body = Message.Vfs_io_reply { result = Error e }; _ }) -> Error e
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let read fd ~len = read_with fd ~len Bytes.sub

let write fd data =
  let len = Bytes.length data in
  if len > buf_size then invalid_arg "Fslib.write: buffer too large";
  Memory.write (Api.memory ()) ~addr:buf_addr data;
  with_grant ~for_:Wellknown.vfs ~len ~access:Sysif.Read_only (fun grant ->
      match Api.sendrec Wellknown.vfs (Message.Vfs_write { fd; grant; len }) with
      | Ok (Sysif.Rx_msg { body = Message.Vfs_io_reply { result }; _ }) -> result
      | Ok _ -> Error Errno.E_io
      | Error e -> Error e)

let lseek fd ~pos =
  match Api.sendrec Wellknown.vfs (Message.Vfs_lseek { fd; pos }) with
  | Ok (Sysif.Rx_msg { body = Message.Vfs_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let close fd =
  match Api.sendrec Wellknown.vfs (Message.Vfs_close { fd }) with
  | Ok (Sysif.Rx_msg { body = Message.Vfs_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let ioctl fd ~op ~arg =
  match Api.sendrec Wellknown.vfs (Message.Vfs_ioctl { fd; op; arg }) with
  | Ok (Sysif.Rx_msg { body = Message.Vfs_io_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e
