let block_size = 4096
let magic = 0x52584653 (* "RXFS" *)
let inode_size = 64
let inodes_per_block = block_size / inode_size
let direct_zones = 7
let zones_per_indirect = block_size / 4
let dirent_size = 64
let max_name = 59
let imap_block = 1
let zmap_start = 2

type superblock = {
  total_blocks : int;
  inode_count : int;
  zmap_blocks : int;
  inode_blocks : int;
  data_start : int;
}

let inode_start sb = zmap_start + sb.zmap_blocks

let set_u32 b off v =
  Bytes.set b off (Char.chr (v land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let encode_superblock sb =
  let b = Bytes.make block_size '\000' in
  set_u32 b 0 magic;
  set_u32 b 4 sb.total_blocks;
  set_u32 b 8 sb.inode_count;
  set_u32 b 12 sb.zmap_blocks;
  set_u32 b 16 sb.inode_blocks;
  set_u32 b 20 sb.data_start;
  b

let decode_superblock b =
  if Bytes.length b < 24 then Error "superblock truncated"
  else if get_u32 b 0 <> magic then Error "bad magic"
  else
    Ok
      {
        total_blocks = get_u32 b 4;
        inode_count = get_u32 b 8;
        zmap_blocks = get_u32 b 12;
        inode_blocks = get_u32 b 16;
        data_start = get_u32 b 20;
      }

type inode = { mode : int; size : int; nlinks : int; zones : int array }

let zone_slots = direct_zones + 2

let encode_inode ino =
  let b = Bytes.make inode_size '\000' in
  set_u32 b 0 ino.mode;
  set_u32 b 4 ino.size;
  set_u32 b 8 ino.nlinks;
  Array.iteri (fun i z -> set_u32 b (12 + (4 * i)) z) ino.zones;
  b

let decode_inode b ~off =
  {
    mode = get_u32 b (off + 0);
    size = get_u32 b (off + 4);
    nlinks = get_u32 b (off + 8);
    zones = Array.init zone_slots (fun i -> get_u32 b (off + 12 + (4 * i)));
  }

let encode_dirent ~ino ~name =
  if String.length name > max_name then invalid_arg "Layout.encode_dirent: name too long";
  let b = Bytes.make dirent_size '\000' in
  set_u32 b 0 ino;
  Bytes.blit_string name 0 b 4 (String.length name);
  b

let decode_dirent b ~off =
  let ino = get_u32 b off in
  let raw = Bytes.sub_string b (off + 4) (dirent_size - 4) in
  let name = match String.index_opt raw '\000' with Some i -> String.sub raw 0 i | None -> raw in
  (ino, name)

let geometry ~total_blocks ~inode_count =
  let bits_per_block = block_size * 8 in
  let zmap_blocks = ((total_blocks + bits_per_block - 1) / bits_per_block) in
  let inode_blocks = (inode_count + inodes_per_block - 1) / inodes_per_block in
  let data_start = zmap_start + zmap_blocks + inode_blocks in
  { total_blocks; inode_count; zmap_blocks; inode_blocks; data_start }
