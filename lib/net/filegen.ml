module Xxh64 = Resilix_checksum.Xxh64
module Md5 = Resilix_checksum.Md5

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] word ~seed ~index =
  mix (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (index + 1))))

(* Byte [i] of the file is byte [i mod 8] of word [i / 8]: whole words
   are stored little-endian in one write; only a partial word at either
   end goes byte by byte. *)
let read_into ~seed ~off ~len out =
  if off < 0 || len < 0 || len > Bytes.length out then invalid_arg "Filegen.read_into";
  let partial ~pos ~abs ~take =
    let w = word ~seed ~index:(abs / 8) and inner = abs mod 8 in
    for j = 0 to take - 1 do
      Bytes.unsafe_set out (pos + j)
        (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical w (8 * (inner + j))) land 0xFF))
    done
  in
  let head = min len ((8 - (off mod 8)) mod 8) in
  if head > 0 then partial ~pos:0 ~abs:off ~take:head;
  let pos = ref head in
  let index = ref ((off + head) / 8) in
  while !pos + 8 <= len do
    Bytes.set_int64_le out !pos (word ~seed ~index:!index);
    pos := !pos + 8;
    incr index
  done;
  if !pos < len then partial ~pos:!pos ~abs:(off + !pos) ~take:(len - !pos)

let read ~seed ~off ~len =
  if off < 0 || len < 0 then invalid_arg "Filegen.read";
  let out = Bytes.create len in
  read_into ~seed ~off ~len out;
  out

(* The whole file, 64 KB at a time through one reused buffer; a
   smaller file gets a buffer of its own size (most load-generator
   files are 2 KB, and a 64-KB buffer would be a major-heap block). *)
let iter_chunks ~seed ~size f =
  let buf = Bytes.create (max 0 (min 65536 size)) in
  let off = ref 0 in
  while !off < size do
    let len = min (Bytes.length buf) (size - !off) in
    read_into ~seed ~off:!off ~len buf;
    f buf len;
    off := !off + len
  done

let digest ~seed ~size =
  let h = Xxh64.init () in
  iter_chunks ~seed ~size (fun b len -> Xxh64.update h b ~off:0 ~len);
  Xxh64.to_hex (Xxh64.digest h)

let md5_digest ~seed ~size =
  let ctx = Md5.init () in
  iter_chunks ~seed ~size (fun b len -> Md5.update ctx b ~off:0 ~len);
  Md5.hex (Md5.finalize ctx)
