(** Application-side file API: thin wrappers over the VFS protocol
    that manage the request grant and bounce buffer (the simulated
    libc's [open]/[read]/[write]). *)

module Errno := Resilix_proto.Errno

val open_file :
  ?wr:bool -> ?create:bool -> ?trunc:bool -> string -> (int, Errno.t) result
(** Open a path; returns a file descriptor. *)

val read_with : int -> len:int -> (bytes -> int -> int -> 'a) -> ('a, Errno.t) result
(** [read_with fd ~len f] reads up to [len] bytes at the current
    position (max 60 KB per call) into the bounce buffer and is
    [f buf off n]: the [n] bytes read are [buf]'s from [off] on, and
    [n = 0] means end of file.  [buf] is the bounce buffer itself, so
    nothing is copied: [f] must not write to it nor keep it. *)

val read : int -> len:int -> (bytes, Errno.t) result
(** [read_with] into a fresh copy; an empty result means end of
    file. *)

val write : int -> bytes -> (int, Errno.t) result
(** Write the whole buffer (max 60 KB per call); returns bytes
    written. *)

val lseek : int -> pos:int -> (unit, Errno.t) result
(** Set the file position. *)

val close : int -> (unit, Errno.t) result
(** Release the descriptor. *)

val ioctl : int -> op:string -> arg:int -> (int, Errno.t) result
(** Device control on a character-device descriptor. *)
