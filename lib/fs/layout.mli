(** On-disk layout of the MINIX-like file system (RXFS).

    {v
      block 0                superblock
      block 1                inode bitmap (1 block)
      blocks 2 .. 2+Z-1      zone bitmap (Z blocks)
      blocks .. inode table
      blocks .. data zones
    v}

    Blocks are 4096 bytes.  Inodes are 64 bytes: mode, size, link
    count, 7 direct zones, one indirect zone, one double-indirect zone
    — enough to address 4 GB files, comfortably covering the paper's
    1-GB dd experiment.  Directory entries are 64 bytes: a 4-byte
    inode number and a 60-byte name. *)

val block_size : int
(** 4096. *)

val magic : int
(** Superblock magic. *)

val inode_size : int
(** 64. *)

val inodes_per_block : int
(** 64. *)

val direct_zones : int
(** 7. *)

val zones_per_indirect : int
(** 1024 zone numbers per indirect block. *)

val dirent_size : int
(** 64. *)

val max_name : int
(** 59 (one byte reserved for the NUL terminator convention). *)

type superblock = {
  total_blocks : int;
  inode_count : int;
  zmap_blocks : int;
  inode_blocks : int;
  data_start : int;
}

val imap_block : int
(** Block number of the inode bitmap. *)

val zmap_start : int
(** First block of the zone bitmap. *)

val inode_start : superblock -> int
(** First block of the inode table. *)

val encode_superblock : superblock -> bytes
(** One full block. *)

val decode_superblock : bytes -> (superblock, string) result
(** Validates the magic. *)

type inode = {
  mode : int;  (** 0 free, 1 regular file, 2 directory *)
  size : int;
  nlinks : int;
  zones : int array;  (** 7 direct, then indirect, then double-indirect *)
}

val encode_inode : inode -> bytes
(** 64 bytes. *)

val decode_inode : bytes -> off:int -> inode
(** Read an inode record at [off]. *)

val encode_dirent : ino:int -> name:string -> bytes
(** 64 bytes. @raise Invalid_argument if the name is too long. *)

val decode_dirent : bytes -> off:int -> int * string
(** [(ino, name)]; ino 0 means the slot is free. *)

val geometry : total_blocks:int -> inode_count:int -> superblock
(** Compute the layout for a device of the given size. *)
