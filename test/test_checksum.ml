(* Tests for lib/checksum: known-answer vectors, streaming/one-shot
   equivalence and bytewise-reference properties, range checks and
   the allocation budget of the word-at-a-time loops. *)

module Md5 = Resilix_checksum.Md5
module Sha1 = Resilix_checksum.Sha1
module Crc32 = Resilix_checksum.Crc32
module Fnv = Resilix_checksum.Fnv
module Xxh64 = Resilix_checksum.Xxh64

let check_md5 input expected () = Alcotest.(check string) input expected (Md5.digest_string input)

let check_sha1 input expected () =
  Alcotest.(check string) input expected (Sha1.digest_string input)

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let sha1_vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
  ]

let test_sha1_million () =
  (* FIPS 180-1 appendix: one million 'a's. *)
  let ctx = Sha1.init () in
  let chunk = Bytes.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha1.update ctx chunk ~off:0 ~len:1000
  done;
  Alcotest.(check string)
    "sha1 of 1M a's" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (Sha1.finalize ctx))

let test_crc32_vectors () =
  Alcotest.(check int) "crc32 of empty" 0 (Crc32.string "");
  Alcotest.(check int) "crc32 of '123456789'" 0xCBF43926 (Crc32.string "123456789")

let test_fnv_vectors () =
  (* Published FNV-1a 64-bit values. *)
  Alcotest.(check string) "fnv of empty" "cbf29ce484222325" (Fnv.to_hex (Fnv.string ""));
  Alcotest.(check string) "fnv of 'a'" "af63dc4c8601ec8c" (Fnv.to_hex (Fnv.string "a"));
  Alcotest.(check string) "fnv of 'foobar'" "85944171f73967e8" (Fnv.to_hex (Fnv.string "foobar"))

(* Published XXH64 (seed 0) values.  Each input of 32 bytes or more
   has a tail that is not a whole stripe; the low 32 bits of each were
   cross-checked against zstd's frame checksum
   ([zstd --check -c | tail -c 4 | xxd -p], little-endian). *)
let test_xxh64_vectors () =
  let check label expected s = Alcotest.(check string) label expected (Xxh64.to_hex (Xxh64.string s)) in
  check "empty" "ef46db3751d8e999" "";
  check "abc" "44bc2cf5ad770999" "abc";
  check "quick brown fox (43 bytes)" "0b242d361fda71bc" "The quick brown fox jumps over the lazy dog";
  check "71 bytes i*7" "a076db31239c3ea4" (String.init 71 (fun i -> Char.chr ((i * 7) land 0xFF)));
  check "100 bytes i" "6ac1e58032166597" (String.init 100 (fun i -> Char.chr i));
  check "100,000 zero bytes" "2c9fd5b2f34e23db" (String.make 100_000 '\000')

(* Property: splitting the input into arbitrary chunks does not change
   any digest — this is exactly how the dd/wget examples stream data. *)

let random_chunks =
  QCheck.Gen.(
    let* body = string_size (int_bound 600) in
    let* cuts = list_size (int_bound 8) (int_bound (max 1 (String.length body))) in
    QCheck.Gen.return (body, List.sort_uniq compare cuts))

let split_at_cuts body cuts =
  let n = String.length body in
  let points = List.filter (fun c -> c > 0 && c < n) cuts in
  let rec pieces start = function
    | [] -> [ String.sub body start (n - start) ]
    | c :: rest -> String.sub body start (c - start) :: pieces c rest
  in
  pieces 0 points

let prop_streaming_md5 =
  QCheck.Test.make ~name:"md5 streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let ctx = Md5.init () in
      List.iter (Md5.update_string ctx) (split_at_cuts body cuts);
      Md5.hex (Md5.finalize ctx) = Md5.digest_string body)

let prop_streaming_sha1 =
  QCheck.Test.make ~name:"sha1 streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let ctx = Sha1.init () in
      List.iter (Sha1.update_string ctx) (split_at_cuts body cuts);
      Sha1.hex (Sha1.finalize ctx) = Sha1.digest_string body)

let prop_streaming_crc =
  QCheck.Test.make ~name:"crc32 streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let c =
        List.fold_left (fun acc s -> Crc32.update_string acc s) Crc32.start
          (split_at_cuts body cuts)
      in
      Crc32.finish c = Crc32.string body)

let prop_streaming_fnv =
  QCheck.Test.make ~name:"fnv streaming = one-shot" ~count:200
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let h =
        List.fold_left (fun acc s -> Fnv.update_string acc s) Fnv.start (split_at_cuts body cuts)
      in
      h = Fnv.string body)

let prop_streaming_xxh64 =
  QCheck.Test.make ~name:"xxh64 streaming = one-shot" ~count:300
    (QCheck.make random_chunks)
    (fun (body, cuts) ->
      let t = Xxh64.init () in
      List.iter (Xxh64.update_string t) (split_at_cuts body cuts);
      Xxh64.digest t = Xxh64.string body)

(* Oracle: the plain bytewise table-driven CRC-32. *)
let reference_crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let reference_crc_update crc b ~off ~len =
  let c = ref crc in
  for i = off to off + len - 1 do
    c := reference_crc_table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

(* A buffer, a slice of it at any (often unaligned) offset, and a
   running CRC to continue from. *)
let crc_slice =
  QCheck.Gen.(
    let* body = string_size (int_bound 300) in
    let n = String.length body in
    let* off = int_bound n in
    let* len = oneof [ int_bound (min 7 (n - off)); int_bound (n - off) ] in
    let* crc = oneof [ return Crc32.start; map (fun v -> v land 0xFFFFFFFF) int ] in
    return (body, off, len, crc))

let prop_crc_matches_reference =
  QCheck.Test.make ~name:"crc32 update = bytewise reference" ~count:500
    (QCheck.make
       ~print:(fun (body, off, len, crc) ->
         Printf.sprintf "%S off=%d len=%d crc=%x" body off len crc)
       crc_slice)
    (fun (body, off, len, crc) ->
      let b = Bytes.of_string body in
      Crc32.update crc b ~off ~len = reference_crc_update crc b ~off ~len)

(* Oracle: FNV-1a exactly as specified, one byte per step. *)
let reference_fnv_update h b ~off ~len =
  let h = ref h in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)))) 0x100000001b3L
  done;
  !h

(* A slice at an offset 0-15 (mostly unaligned) made of whole 8-byte
   words plus a tail of every length 0-7, inside a buffer with slack
   after it, and a running hash to continue from. *)
let fnv_slice =
  QCheck.Gen.(
    let* off = int_bound 15 in
    let* words = int_bound 40 in
    let* tail = int_bound 7 in
    let* slack = int_bound 8 in
    let len = (8 * words) + tail in
    let* body = string_size (return (off + len + slack)) in
    let* h = oneof [ return Fnv.start; map Int64.of_int int ] in
    return (body, off, len, h))

let prop_fnv_matches_reference =
  QCheck.Test.make ~name:"fnv update = bytewise reference" ~count:500
    (QCheck.make
       ~print:(fun (body, off, len, h) -> Printf.sprintf "%S off=%d len=%d h=%Lx" body off len h)
       fnv_slice)
    (fun (body, off, len, h) ->
      let b = Bytes.of_string body in
      Fnv.update h b ~off ~len = reference_fnv_update h b ~off ~len)

(* [off + len] overflows to a negative number here: the module's own
   range check must still refuse it before any load. *)
let test_overflowing_ranges () =
  let b = Bytes.make 64 'x' in
  Alcotest.check_raises "fnv" (Invalid_argument "Fnv.update") (fun () ->
      ignore (Fnv.update Fnv.start b ~off:1 ~len:max_int));
  Alcotest.check_raises "crc32" (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.update Crc32.start b ~off:1 ~len:max_int))

let test_xxh64_overflowing_range () =
  let b = Bytes.make 64 'x' in
  Alcotest.check_raises "xxh64" (Invalid_argument "Xxh64.update") (fun () ->
      Xxh64.update (Xxh64.init ()) b ~off:1 ~len:max_int)

(* The per-word loops box no [Int64]: over 64 KB the only allocation
   is FNV's boxed result (3 words).  Bytecode boxes everything. *)
let test_allocation_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let b = Bytes.init 65536 (fun i -> Char.chr (i land 0xFF)) in
  let before = Gc.minor_words () in
  let h = Fnv.update Fnv.start b ~off:0 ~len:65536 in
  let c = Crc32.update Crc32.start b ~off:0 ~len:65536 in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity (h, c));
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 3" words) true (words <= 3.)

(* XXH64 keeps its lanes in [Bytes], so [update] allocates nothing at
   all; an unaligned start also goes through the partial-stripe
   buffer. *)
let test_xxh64_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let b = Bytes.init 65540 (fun i -> Char.chr (i land 0xFF)) in
  let t = Xxh64.init () in
  let before = Gc.minor_words () in
  Xxh64.update t b ~off:0 ~len:65536;
  Xxh64.update t b ~off:3 ~len:65537;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity t);
  Alcotest.(check (float 0.)) "minor words" 0. words

let prop_md5_injective_smoke =
  QCheck.Test.make ~name:"md5 distinguishes distinct short strings" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_bound 40)) (string_of_size (QCheck.Gen.int_bound 40)))
    (fun (a, b) -> a = b || Md5.digest_string a <> Md5.digest_string b)

let tests =
  List.mapi
    (fun i (input, expected) ->
      Alcotest.test_case (Printf.sprintf "md5 vector %d" i) `Quick (check_md5 input expected))
    md5_vectors
  @ List.mapi
      (fun i (input, expected) ->
        Alcotest.test_case (Printf.sprintf "sha1 vector %d" i) `Quick (check_sha1 input expected))
      sha1_vectors
  @ [
      Alcotest.test_case "sha1 one million a's" `Slow test_sha1_million;
      Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
      Alcotest.test_case "fnv-1a vectors" `Quick test_fnv_vectors;
      Alcotest.test_case "xxh64 vectors" `Quick test_xxh64_vectors;
      QCheck_alcotest.to_alcotest prop_streaming_md5;
      QCheck_alcotest.to_alcotest prop_streaming_sha1;
      QCheck_alcotest.to_alcotest prop_streaming_crc;
      QCheck_alcotest.to_alcotest prop_crc_matches_reference;
      QCheck_alcotest.to_alcotest prop_streaming_fnv;
      QCheck_alcotest.to_alcotest prop_fnv_matches_reference;
      QCheck_alcotest.to_alcotest prop_streaming_xxh64;
      Alcotest.test_case "fnv and crc32 refuse overflowing ranges" `Quick test_overflowing_ranges;
      Alcotest.test_case "fnv and crc32 allocation budget" `Quick test_allocation_budget;
      Alcotest.test_case "xxh64 refuses an overflowing range" `Quick test_xxh64_overflowing_range;
      Alcotest.test_case "xxh64 update allocates nothing" `Quick test_xxh64_allocation;
      QCheck_alcotest.to_alcotest prop_md5_injective_smoke;
    ]
