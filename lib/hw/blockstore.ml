type t = {
  seed : int;
  sectors : int;
  sector_size : int;
  written : (int, bytes) Hashtbl.t;
}

let create ~seed ~sectors ~sector_size =
  if sector_size <= 0 || sector_size mod 8 <> 0 then invalid_arg "Blockstore.create: sector size";
  { seed; sectors; sector_size; written = Hashtbl.create 1024 }

let sector_size t = t.sector_size
let sectors t = t.sectors

(* splitmix64 keyed by (seed, lba, word index): deterministic content
   for never-written sectors.  Inlined so that no word's [Int64] is
   boxed on its way out of [mix]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Unchecked little-endian store: [read_into] has checked the whole
   destination range once. *)
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] store_le buf i v = set64u buf i (if Sys.big_endian then bswap64 v else v)

(* Never-written sector [lba] into [buf] at [pos], which the caller
   has range-checked. *)
let generate_into t lba buf pos =
  let key = Int64.add (Int64.of_int t.seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (lba + 1))) in
  for w = 0 to (t.sector_size / 8) - 1 do
    store_le buf (pos + (w * 8)) (mix (Int64.add key (Int64.of_int w)))
  done

let sector t lba =
  match Hashtbl.find_opt t.written lba with
  | Some b -> Bytes.copy b
  | None ->
      let buf = Bytes.create t.sector_size in
      generate_into t lba buf 0;
      buf

let read_into t ~lba ~count buf pos =
  let size = t.sector_size in
  (* [count * size] is never formed before [count] is known to fit. *)
  if
    lba < 0 || count < 0 || count > t.sectors - lba || pos < 0 || pos > Bytes.length buf
    || count > (Bytes.length buf - pos) / size
  then invalid_arg "Blockstore.read";
  for i = 0 to count - 1 do
    match Hashtbl.find_opt t.written (lba + i) with
    | Some b -> Bytes.blit b 0 buf (pos + (i * size)) size
    | None -> generate_into t (lba + i) buf (pos + (i * size))
  done

let read t ~lba ~count =
  if count < 0 || count > t.sectors then invalid_arg "Blockstore.read";
  let out = Bytes.create (count * t.sector_size) in
  read_into t ~lba ~count out 0;
  out

let write t ~lba data =
  let len = Bytes.length data in
  if len mod t.sector_size <> 0 then invalid_arg "Blockstore.write: partial sector";
  let count = len / t.sector_size in
  if lba < 0 || count > t.sectors - lba then invalid_arg "Blockstore.write: out of range";
  for i = 0 to count - 1 do
    Hashtbl.replace t.written (lba + i) (Bytes.sub data (i * t.sector_size) t.sector_size)
  done

let written_sectors t = Hashtbl.length t.written
