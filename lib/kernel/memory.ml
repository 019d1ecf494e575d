exception Fault of { addr : int; len : int }

type t = { data : Bytes.t }

let create ~size = { data = Bytes.make size '\000' }
let size t = Bytes.length t.data

let check t ~addr ~len =
  if addr < 0 || len < 0 || addr + len > Bytes.length t.data then raise (Fault { addr; len })

let read t ~addr ~len =
  check t ~addr ~len;
  Bytes.sub t.data addr len

let write t ~addr src =
  let len = Bytes.length src in
  check t ~addr ~len;
  Bytes.blit src 0 t.data addr len

let blit_out t ~addr ~dst ~dst_off ~len =
  check t ~addr ~len;
  Bytes.blit t.data addr dst dst_off len

let blit_in t ~addr ~src ~src_off ~len =
  check t ~addr ~len;
  Bytes.blit src src_off t.data addr len

let equal_u64 t ~addr key ~off =
  check t ~addr ~len:8;
  (Bytes.get_int64_ne t.data addr : int64) = Bytes.get_int64_ne key off

let copy ~src ~src_addr ~dst ~dst_addr ~len =
  check src ~addr:src_addr ~len;
  check dst ~addr:dst_addr ~len;
  Bytes.blit src.data src_addr dst.data dst_addr len

let get_u8 t addr =
  check t ~addr ~len:1;
  Char.code (Bytes.get t.data addr)

let set_u8 t addr v =
  check t ~addr ~len:1;
  Bytes.set t.data addr (Char.chr (v land 0xFF))

let get_u32 t addr =
  check t ~addr ~len:4;
  Char.code (Bytes.get t.data addr)
  lor (Char.code (Bytes.get t.data (addr + 1)) lsl 8)
  lor (Char.code (Bytes.get t.data (addr + 2)) lsl 16)
  lor (Char.code (Bytes.get t.data (addr + 3)) lsl 24)

let set_u32 t addr v =
  check t ~addr ~len:4;
  Bytes.set t.data addr (Char.chr (v land 0xFF));
  Bytes.set t.data (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set t.data (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set t.data (addr + 3) (Char.chr ((v lsr 24) land 0xFF))
