(* XXH64 (seed 0).  The four lane accumulators live in [acc] as
   little-endian words and the partial stripe in [buf], so a state is
   two small [Bytes] and two ints and [update] boxes no [Int64]: the
   lanes are loaded into local refs once per call, which the native
   compiler keeps unboxed. *)

let p1 = 0x9E3779B185EBCA87L
let p2 = 0xC2B2AE3D27D4EB4FL
let p3 = 0x165667B19E3779F9L
let p4 = 0x85EBCA77C2B2AE63L
let p5 = 0x27D4EB2F165667C5L

type t = {
  acc : Bytes.t; (* lanes v1..v4 *)
  buf : Bytes.t; (* the first [buffered] bytes of an unfinished stripe *)
  mutable buffered : int;
  mutable total : int;
}

let[@inline] rotl x r = Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))
let[@inline] round acc input = Int64.mul (rotl (Int64.add acc (Int64.mul input p2)) 31) p1

let[@inline] merge h v =
  Int64.add (Int64.mul (Int64.logxor h (round 0L v)) p1) p4

let init () =
  let acc = Bytes.create 32 in
  Bytes.set_int64_le acc 0 (Int64.add p1 p2);
  Bytes.set_int64_le acc 8 p2;
  Bytes.set_int64_le acc 16 0L;
  Bytes.set_int64_le acc 24 (Int64.neg p1);
  { acc; buf = Bytes.create 32; buffered = 0; total = 0 }

(* Fold the stripes of [b] from [off] up to [stop] ([stop - off] a
   multiple of 32) into the lanes. *)
let stripes t b ~off ~stop =
  let v1 = ref (Bytes.get_int64_le t.acc 0) in
  let v2 = ref (Bytes.get_int64_le t.acc 8) in
  let v3 = ref (Bytes.get_int64_le t.acc 16) in
  let v4 = ref (Bytes.get_int64_le t.acc 24) in
  let i = ref off in
  while !i < stop do
    v1 := round !v1 (Bytes.get_int64_le b !i);
    v2 := round !v2 (Bytes.get_int64_le b (!i + 8));
    v3 := round !v3 (Bytes.get_int64_le b (!i + 16));
    v4 := round !v4 (Bytes.get_int64_le b (!i + 24));
    i := !i + 32
  done;
  Bytes.set_int64_le t.acc 0 !v1;
  Bytes.set_int64_le t.acc 8 !v2;
  Bytes.set_int64_le t.acc 16 !v3;
  Bytes.set_int64_le t.acc 24 !v4

let update t b ~off ~len =
  if off < 0 || len < 0 || len > Bytes.length b - off then invalid_arg "Xxh64.update";
  t.total <- t.total + len;
  (* Top up a partial stripe first, then whole stripes straight from
     [b], then keep the rest. *)
  let fill = if t.buffered > 0 then min len (32 - t.buffered) else 0 in
  if fill > 0 then begin
    Bytes.blit b off t.buf t.buffered fill;
    t.buffered <- t.buffered + fill;
    if t.buffered = 32 then begin
      stripes t t.buf ~off:0 ~stop:32;
      t.buffered <- 0
    end
  end;
  let off = off + fill and len = len - fill in
  let whole = len land lnot 31 in
  if whole > 0 then stripes t b ~off ~stop:(off + whole);
  if len > whole then begin
    Bytes.blit b (off + whole) t.buf 0 (len - whole);
    t.buffered <- len - whole
  end

let update_string t s = update t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

let digest t =
  let v i = Bytes.get_int64_le t.acc (8 * i) in
  let h =
    if t.total >= 32 then
      let h = Int64.add (Int64.add (rotl (v 0) 1) (rotl (v 1) 7)) (Int64.add (rotl (v 2) 12) (rotl (v 3) 18)) in
      merge (merge (merge (merge h (v 0)) (v 1)) (v 2)) (v 3)
    else Int64.add (v 2) p5
  in
  let h = ref (Int64.add h (Int64.of_int t.total)) in
  let i = ref 0 in
  while !i + 8 <= t.buffered do
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (round 0L (Bytes.get_int64_le t.buf !i))) 27) p1) p4;
    i := !i + 8
  done;
  if !i + 4 <= t.buffered then begin
    let w = Int64.logand (Int64.of_int32 (Bytes.get_int32_le t.buf !i)) 0xFFFFFFFFL in
    h := Int64.add (Int64.mul (rotl (Int64.logxor !h (Int64.mul w p1)) 23) p2) p3;
    i := !i + 4
  end;
  while !i < t.buffered do
    let c = Int64.of_int (Char.code (Bytes.get t.buf !i)) in
    h := Int64.mul (rotl (Int64.logxor !h (Int64.mul c p5)) 11) p1;
    incr i
  done;
  let h = !h in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 33)) p2 in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) p3 in
  Int64.logxor h (Int64.shift_right_logical h 32)

let string s =
  let t = init () in
  update_string t s;
  digest t

let to_hex h = Printf.sprintf "%016Lx" h
