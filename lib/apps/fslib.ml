module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Memory = Resilix_kernel.Memory
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown

(* Per-process bounce buffer for VFS data. *)
let buf_addr = 0x2000
let buf_size = 61440

let vfs msg reply = Api.call Wellknown.vfs msg reply
let open_reply = function Message.Vfs_open_reply { result } -> Some result | _ -> None
let io_reply = function Message.Vfs_io_reply { result } -> Some result | _ -> None
let vfs_reply = function Message.Vfs_reply { result } -> Some result | _ -> None

let open_file ?(wr = false) ?(create = false) ?(trunc = false) path =
  vfs (Message.Vfs_open { path; flags = { Message.wr; create; trunc } }) open_reply

let with_grant ~len ~access f = Api.with_grant ~for_:Wellknown.vfs ~base:buf_addr ~len ~access f

let read_with fd ~len f =
  let len = min len buf_size in
  with_grant ~len ~access:Sysif.Write_only (fun grant ->
      Result.map
        (fun n -> Memory.view (Api.memory ()) ~addr:buf_addr ~len:n (fun buf off -> f buf off n))
        (vfs (Message.Vfs_read { fd; grant; len }) io_reply))

let read fd ~len = read_with fd ~len Bytes.sub

let write fd data =
  let len = Bytes.length data in
  if len > buf_size then invalid_arg "Fslib.write: buffer too large";
  Memory.write (Api.memory ()) ~addr:buf_addr data;
  with_grant ~len ~access:Sysif.Read_only (fun grant ->
      vfs (Message.Vfs_write { fd; grant; len }) io_reply)

let lseek fd ~pos = vfs (Message.Vfs_lseek { fd; pos }) vfs_reply
let close fd = vfs (Message.Vfs_close { fd }) vfs_reply
let ioctl fd ~op ~arg = vfs (Message.Vfs_ioctl { fd; op; arg }) io_reply
