type t = int64

let start = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* Both inlined: no [Int64] is boxed per byte. *)
let[@inline] step h byte = Int64.mul (Int64.logxor h byte) prime
let[@inline] byte w k = Int64.logand (Int64.shift_right_logical w (8 * k)) 0xFFL

(* Eight bytes per load, one range check per call, a bytewise tail.
   FNV-1a still folds one byte per step in memory order, so each
   little-endian word is consumed low byte first. *)
let update h b ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length b - off then invalid_arg "Fnv.update";
  let h = ref h in
  let i = ref off in
  let stop8 = off + len - 8 in
  while !i <= stop8 do
    let w = Bytes.get_int64_le b !i in
    h := step !h (byte w 0);
    h := step !h (byte w 1);
    h := step !h (byte w 2);
    h := step !h (byte w 3);
    h := step !h (byte w 4);
    h := step !h (byte w 5);
    h := step !h (byte w 6);
    h := step !h (byte w 7);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    h := step !h (Int64.of_int (Char.code (Bytes.unsafe_get b j)))
  done;
  !h

let update_string h s = update h (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
let string s = update_string start s
let to_hex h = Printf.sprintf "%016Lx" h
