exception Fault of { addr : int; len : int }

(* [data] stays [Bytes.empty] until the first write: most spaces are
   never written (a boot creates ~30 of up to 1 MB each), and a space
   that has no bytes yet reads as zeros. *)
type t = { size : int; mutable data : Bytes.t }

let create ~size =
  if size < 0 then invalid_arg "Memory.create";
  { size; data = Bytes.empty }

let size t = t.size
let[@inline] allocated t = Bytes.length t.data > 0

(* The backing bytes, made on the first write. *)
let[@inline] writable t =
  if not (allocated t) then t.data <- Bytes.make t.size '\000';
  t.data

let check t ~addr ~len =
  if addr < 0 || len < 0 || addr > t.size - len then raise (Fault { addr; len })

let read t ~addr ~len =
  check t ~addr ~len;
  if allocated t then Bytes.sub t.data addr len else Bytes.make len '\000'

let write t ~addr src =
  let len = Bytes.length src in
  check t ~addr ~len;
  Bytes.blit src 0 (writable t) addr len

let blit_out t ~addr ~dst ~dst_off ~len =
  check t ~addr ~len;
  if allocated t then Bytes.blit t.data addr dst dst_off len else Bytes.fill dst dst_off len '\000'

let blit_in t ~addr ~src ~src_off ~len =
  check t ~addr ~len;
  Bytes.blit src src_off (writable t) addr len

let fill t ~addr ~len f =
  check t ~addr ~len;
  f (writable t) addr len

let view t ~addr ~len f =
  check t ~addr ~len;
  if allocated t then f t.data addr else f (Bytes.make len '\000') 0

external unsafe_get_int64 : bytes -> int -> int64 = "%caml_bytes_get64u"

let equal_u64_unchecked t ~addr key ~off =
  let w : int64 = if allocated t then unsafe_get_int64 t.data addr else 0L in
  w = unsafe_get_int64 key off

let copy ~src ~src_addr ~dst ~dst_addr ~len =
  check src ~addr:src_addr ~len;
  check dst ~addr:dst_addr ~len;
  if allocated src then Bytes.blit src.data src_addr (writable dst) dst_addr len
  else if allocated dst then Bytes.fill dst.data dst_addr len '\000'

let get_u8 t addr =
  check t ~addr ~len:1;
  if allocated t then Char.code (Bytes.get t.data addr) else 0

let set_u8 t addr v =
  check t ~addr ~len:1;
  Bytes.set (writable t) addr (Char.chr (v land 0xFF))

let get_u32 t addr =
  check t ~addr ~len:4;
  if allocated t then
    Char.code (Bytes.get t.data addr)
    lor (Char.code (Bytes.get t.data (addr + 1)) lsl 8)
    lor (Char.code (Bytes.get t.data (addr + 2)) lsl 16)
    lor (Char.code (Bytes.get t.data (addr + 3)) lsl 24)
  else 0

let set_u32 t addr v =
  check t ~addr ~len:4;
  let data = writable t in
  Bytes.set data addr (Char.chr (v land 0xFF));
  Bytes.set data (addr + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set data (addr + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set data (addr + 3) (Char.chr ((v lsr 24) land 0xFF))
