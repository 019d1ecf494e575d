type t = int

(* Slicing-by-8 (Intel's formulation): [tables] holds eight 256-entry
   tables back to back.  Table 0 is the classic bytewise table; entry
   [n] of table [k] is the CRC of byte [n] followed by [k] zero bytes,
   so one step folds eight input bytes with eight lookups.  Built when
   the module initialises: a [lazy] would be forced concurrently by
   campaign domains, and OCaml 5 raises [CamlinternalLazy.Undefined]
   in all but one of them. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let[@inline] get tab k i = Array.unsafe_get tab ((k lsl 8) + i)
let start = 0xFFFFFFFF

let update crc b ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length b - off then invalid_arg "Crc32.update";
  let tab = tables in
  let c = ref (crc land 0xFFFFFFFF) in
  let i = ref off in
  let stop8 = off + len - 8 in
  while !i <= stop8 do
    let w = Bytes.get_int64_le b !i in
    let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF) in
    let hi = Int64.to_int (Int64.shift_right_logical w 32) in
    c :=
      get tab 7 (lo land 0xFF)
      lxor get tab 6 ((lo lsr 8) land 0xFF)
      lxor get tab 5 ((lo lsr 16) land 0xFF)
      lxor get tab 4 (lo lsr 24)
      lxor get tab 3 (hi land 0xFF)
      lxor get tab 2 ((hi lsr 8) land 0xFF)
      lxor get tab 1 ((hi lsr 16) land 0xFF)
      lxor get tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    c := get tab 0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let update_string crc s = update crc (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
let finish crc = crc lxor 0xFFFFFFFF
let string s = finish (update_string start s)
