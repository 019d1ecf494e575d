(* Tests for the file-system stack: on-disk codecs, mkfs, and the
   VFS/MFS path exercised through application file I/O. *)

module Layout = Resilix_fs.Layout
module Mkfs = Resilix_fs.Mkfs
module System = Resilix_system.System
module Fslib = Resilix_apps.Fslib
module Errno = Resilix_proto.Errno

(* --- layout codecs --- *)

let test_superblock_roundtrip () =
  let sb = Layout.geometry ~total_blocks:2048 ~inode_count:256 in
  match Layout.decode_superblock (Layout.encode_superblock sb) with
  | Error e -> Alcotest.fail e
  | Ok sb' ->
      Alcotest.(check int) "total blocks" sb.Layout.total_blocks sb'.Layout.total_blocks;
      Alcotest.(check int) "data start" sb.Layout.data_start sb'.Layout.data_start

let test_superblock_magic_checked () =
  let b = Bytes.make Layout.block_size '\000' in
  match Layout.decode_superblock b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "zeroed block must not decode as a superblock"

let test_inode_roundtrip () =
  let inode =
    { Layout.mode = 1; size = 123456; nlinks = 2; zones = Array.init 9 (fun i -> i * 7) }
  in
  let decoded = Layout.decode_inode (Layout.encode_inode inode) ~off:0 in
  Alcotest.(check int) "size" inode.Layout.size decoded.Layout.size;
  Alcotest.(check bool) "zones" true (inode.Layout.zones = decoded.Layout.zones)

let prop_dirent_roundtrip =
  let name_gen =
    QCheck.Gen.(
      let* n = int_range 1 Layout.max_name in
      string_size ~gen:(map (fun i -> Char.chr (33 + (i mod 90))) (int_bound 1000)) (return n))
  in
  QCheck.Test.make ~name:"dirent roundtrip" ~count:200
    (QCheck.make QCheck.Gen.(pair (int_range 1 100000) name_gen))
    (fun (ino, name) ->
      let ino', name' = Layout.decode_dirent (Layout.encode_dirent ~ino ~name) ~off:0 in
      ino = ino' && String.equal name name')

let test_geometry_covers_device () =
  let sb = Layout.geometry ~total_blocks:100_000 ~inode_count:1024 in
  Alcotest.(check bool) "zone bitmap covers every block" true
    (sb.Layout.zmap_blocks * Layout.block_size * 8 >= sb.Layout.total_blocks);
  Alcotest.(check bool) "inode table sized for the count" true
    (sb.Layout.inode_blocks * Layout.inodes_per_block >= 1024)

(* --- mkfs --- *)

let test_mkfs_structure () =
  let blocks = Hashtbl.create 64 in
  let write_block b data = Hashtbl.replace blocks b (Bytes.copy data) in
  let mk = Mkfs.format ~write_block ~total_blocks:1024 ~inode_count:128 in
  let mk = Mkfs.add_contiguous_file mk ~name:"data" ~size:(100 * Layout.block_size) in
  Mkfs.finish mk;
  (match Layout.decode_superblock (Hashtbl.find blocks 0) with
  | Ok sb -> Alcotest.(check int) "total blocks recorded" 1024 sb.Layout.total_blocks
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "file placement known" true (Mkfs.file_first_block mk "data" <> None);
  (* The file needs an indirect block (100 > 7 direct zones), which
     mkfs must have written explicitly. *)
  let inode_block = Hashtbl.find blocks (Layout.zmap_start + 1) in
  let inode = Layout.decode_inode inode_block ~off:(2 * Layout.inode_size) in
  Alcotest.(check int) "file size recorded" (100 * Layout.block_size) inode.Layout.size;
  Alcotest.(check bool) "indirect zone allocated" true
    (inode.Layout.zones.(Layout.direct_zones) <> 0);
  Alcotest.(check bool) "indirect block written" true
    (Hashtbl.mem blocks inode.Layout.zones.(Layout.direct_zones))

(* --- end-to-end file I/O through VFS/MFS --- *)

let boot_fs () =
  let t = System.boot ~opts:{ System.default_opts with System.disk_mb = 16 } () in
  System.start_services t [ System.spec_sata () ];
  t

let with_app t body =
  let finished = ref false in
  let failure = ref None in
  ignore
    (System.spawn_app t ~name:"fsapp" (fun () ->
         (try body () with e -> failure := Some (Printexc.to_string e));
         finished := true));
  let ok = System.run_until t ~timeout:120_000_000 (fun () -> !finished) in
  Alcotest.(check bool) "app finished" true ok;
  match !failure with Some msg -> Alcotest.fail msg | None -> ()

let expect_ok label = function Ok v -> v | Error e -> Alcotest.fail (label ^ ": " ^ Errno.to_string e)

let test_create_write_read () =
  let t = boot_fs () in
  with_app t (fun () ->
      let fd = expect_ok "open" (Fslib.open_file "/a.txt" ~wr:true ~create:true) in
      let n = expect_ok "write" (Fslib.write fd (Bytes.of_string "first file")) in
      assert (n = 10);
      ignore (Fslib.close fd);
      let fd = expect_ok "reopen" (Fslib.open_file "/a.txt") in
      let data = expect_ok "read" (Fslib.read fd ~len:100) in
      assert (String.equal (Bytes.to_string data) "first file");
      (* EOF afterwards *)
      let eof = expect_ok "read eof" (Fslib.read fd ~len:100) in
      assert (Bytes.length eof = 0);
      ignore (Fslib.close fd))

(* [read_with] hands the caller the bounce buffer in place: a 60 KB
   chunk from the cache allocates no data buffer (7,682 words on the
   major heap, which [read] still pays for its copy).  The VFS and MFS
   requests in between allocate only small values on the minor heap
   (~1,900 words).  Bytecode boxes everything. *)
let test_read_with_allocation () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let t = boot_fs () in
  let chunk = 61440 in
  with_app t (fun () ->
      let fd = expect_ok "open" (Fslib.open_file "/chunk" ~wr:true ~create:true) in
      ignore (expect_ok "write" (Fslib.write fd (Bytes.init chunk (fun i -> Char.chr (i land 0xFF)))));
      ignore (Fslib.close fd);
      let fd = expect_ok "reopen" (Fslib.open_file "/chunk") in
      let direct_major () =
        let _, promoted, major = Gc.counters () in
        major -. promoted
      in
      let major = direct_major () and minor = Gc.minor_words () in
      let sum =
        expect_ok "read_with"
          (Fslib.read_with fd ~len:chunk (fun buf off n ->
               let s = ref n in
               for i = off to off + n - 1 do
                 s := !s + Char.code (Bytes.unsafe_get buf i)
               done;
               !s))
      in
      let major = direct_major () -. major and minor = Gc.minor_words () -. minor in
      Alcotest.(check int) "all of the chunk, in place" (chunk + (chunk / 256 * (255 * 256 / 2))) sum;
      Alcotest.(check (float 0.)) "major words" 0. major;
      if minor >= 7682. then Alcotest.failf "%.0f minor words: a data buffer's worth" minor;
      ignore (Fslib.close fd))

let test_large_file_spans_indirect_zones () =
  let t = boot_fs () in
  with_app t (fun () ->
      let fd = expect_ok "open" (Fslib.open_file "/big" ~wr:true ~create:true) in
      (* 200 KB: beyond the 7 direct zones (28 KB), into the indirect. *)
      let chunk = Bytes.init 50_000 (fun i -> Char.chr (i land 0xFF)) in
      for _ = 1 to 4 do
        ignore (expect_ok "write" (Fslib.write fd chunk))
      done;
      ignore (Fslib.close fd);
      let fd = expect_ok "reopen" (Fslib.open_file "/big") in
      let total = ref 0 in
      let sum = ref 0 in
      let rec drain () =
        let data = expect_ok "read" (Fslib.read fd ~len:60_000) in
        if Bytes.length data > 0 then begin
          total := !total + Bytes.length data;
          Bytes.iter (fun c -> sum := !sum + Char.code c) data;
          drain ()
        end
      in
      drain ();
      assert (!total = 200_000);
      (* Content check: sum of the repeating 0..255 ramp. *)
      let expected_sum =
        let s = ref 0 in
        for i = 0 to 49_999 do
          s := !s + (i land 0xFF)
        done;
        4 * !s
      in
      assert (!sum = expected_sum))

let test_lseek_and_sparse_holes () =
  let t = boot_fs () in
  with_app t (fun () ->
      let fd = expect_ok "open" (Fslib.open_file "/sparse" ~wr:true ~create:true) in
      ignore (expect_ok "seek" (Fslib.lseek fd ~pos:100_000));
      ignore (expect_ok "write at offset" (Fslib.write fd (Bytes.of_string "tail")));
      ignore (Fslib.close fd);
      let fd = expect_ok "reopen" (Fslib.open_file "/sparse") in
      (* The hole reads as zeros. *)
      let head = expect_ok "read hole" (Fslib.read fd ~len:1000) in
      assert (Bytes.length head = 1000);
      Bytes.iter (fun c -> assert (c = '\000')) head;
      ignore (expect_ok "seek tail" (Fslib.lseek fd ~pos:100_000));
      let tail = expect_ok "read tail" (Fslib.read fd ~len:10) in
      assert (String.equal (Bytes.to_string tail) "tail");
      ignore (Fslib.close fd))

let test_truncate_on_open () =
  let t = boot_fs () in
  with_app t (fun () ->
      let fd = expect_ok "open" (Fslib.open_file "/t" ~wr:true ~create:true) in
      ignore (expect_ok "write" (Fslib.write fd (Bytes.make 50_000 'x')));
      ignore (Fslib.close fd);
      let fd = expect_ok "open trunc" (Fslib.open_file "/t" ~wr:true ~trunc:true) in
      ignore (Fslib.close fd);
      let fd = expect_ok "reopen" (Fslib.open_file "/t") in
      let data = expect_ok "read" (Fslib.read fd ~len:10) in
      assert (Bytes.length data = 0);
      ignore (Fslib.close fd))

let test_missing_file_enoent () =
  let t = boot_fs () in
  with_app t (fun () ->
      match Fslib.open_file "/no-such-file" with
      | Error Errno.E_noent -> ()
      | Ok _ -> failwith "open of a missing file succeeded"
      | Error e -> failwith ("unexpected error: " ^ Errno.to_string e))

let test_bad_fd_rejected () =
  let t = boot_fs () in
  with_app t (fun () ->
      (match Fslib.read 99 ~len:10 with
      | Error Errno.E_bad_fd -> ()
      | _ -> failwith "read on a bogus fd must fail");
      match Fslib.close 99 with
      | Error Errno.E_bad_fd -> ()
      | _ -> failwith "close on a bogus fd must fail")

let test_many_files () =
  let t = boot_fs () in
  with_app t (fun () ->
      for i = 1 to 20 do
        let path = Printf.sprintf "/file%02d" i in
        let fd = expect_ok "open" (Fslib.open_file path ~wr:true ~create:true) in
        ignore (expect_ok "write" (Fslib.write fd (Bytes.of_string (string_of_int (i * i)))));
        ignore (Fslib.close fd)
      done;
      for i = 1 to 20 do
        let path = Printf.sprintf "/file%02d" i in
        let fd = expect_ok "open" (Fslib.open_file path) in
        let data = expect_ok "read" (Fslib.read fd ~len:20) in
        assert (String.equal (Bytes.to_string data) (string_of_int (i * i)));
        ignore (Fslib.close fd)
      done)

let test_mkfs_files_visible_in_fs () =
  let opts =
    { System.default_opts with System.disk_mb = 16; fs_files = [ ("preload.bin", 123_456) ] }
  in
  let t = System.boot ~opts () in
  System.start_services t [ System.spec_sata () ];
  with_app t (fun () ->
      let fd = expect_ok "open preloaded" (Fslib.open_file "/preload.bin") in
      let total = ref 0 in
      let rec drain () =
        let data = expect_ok "read" (Fslib.read fd ~len:60_000) in
        if Bytes.length data > 0 then begin
          total := !total + Bytes.length data;
          drain ()
        end
      in
      drain ();
      assert (!total = 123_456))

(* Model-based property: a random sequence of writes and seeks through
   VFS/MFS must read back exactly like the same operations applied to
   an in-memory byte array. *)
let prop_fs_matches_reference_model =
  QCheck.Test.make ~name:"vfs/mfs matches an in-memory model" ~count:6
    QCheck.(
      list_of_size
        (QCheck.Gen.int_range 1 8)
        (pair (int_bound 150_000) (int_range 1 30_000)))
    (fun ops ->
      let t = boot_fs () in
      let model = Bytes.make 200_000 '\000' in
      let model_size = ref 0 in
      let ok = ref true in
      let finished = ref false in
      ignore
        (System.spawn_app t ~name:"model" (fun () ->
             (match Fslib.open_file "/m" ~wr:true ~create:true with
             | Error _ -> ok := false
             | Ok fd ->
                 List.iteri
                   (fun i (pos, len) ->
                     let c = Char.chr (65 + (i mod 26)) in
                     let data = Bytes.make len c in
                     (match Fslib.lseek fd ~pos with Ok () -> () | Error _ -> ok := false);
                     (match Fslib.write fd data with
                     | Ok n when n = len -> ()
                     | _ -> ok := false);
                     Bytes.blit data 0 model pos len;
                     model_size := max !model_size (pos + len))
                   ops;
                 ignore (Fslib.close fd);
                 (* Read everything back and compare. *)
                 (match Fslib.open_file "/m" with
                 | Error _ -> ok := false
                 | Ok fd ->
                     let buf = Buffer.create !model_size in
                     let rec drain () =
                       match Fslib.read fd ~len:60_000 with
                       | Ok data when Bytes.length data > 0 ->
                           Buffer.add_bytes buf data;
                           drain ()
                       | Ok _ -> ()
                       | Error _ -> ok := false
                     in
                     drain ();
                     ignore (Fslib.close fd);
                     if
                       not
                         (String.equal (Buffer.contents buf)
                            (Bytes.sub_string model 0 !model_size))
                     then ok := false));
             finished := true));
      ignore (System.run_until t ~timeout:300_000_000 (fun () -> !finished));
      !finished && !ok)

let tests =
  [
    Alcotest.test_case "superblock roundtrip" `Quick test_superblock_roundtrip;
    QCheck_alcotest.to_alcotest prop_fs_matches_reference_model;
    Alcotest.test_case "superblock magic checked" `Quick test_superblock_magic_checked;
    Alcotest.test_case "inode roundtrip" `Quick test_inode_roundtrip;
    QCheck_alcotest.to_alcotest prop_dirent_roundtrip;
    Alcotest.test_case "geometry covers the device" `Quick test_geometry_covers_device;
    Alcotest.test_case "mkfs writes a valid structure" `Quick test_mkfs_structure;
    Alcotest.test_case "create/write/read/EOF" `Quick test_create_write_read;
    Alcotest.test_case "read_with allocation" `Quick test_read_with_allocation;
    Alcotest.test_case "large file uses indirect zones" `Quick test_large_file_spans_indirect_zones;
    Alcotest.test_case "lseek + sparse holes read zero" `Quick test_lseek_and_sparse_holes;
    Alcotest.test_case "truncate on open" `Quick test_truncate_on_open;
    Alcotest.test_case "missing file is ENOENT" `Quick test_missing_file_enoent;
    Alcotest.test_case "bad fd rejected" `Quick test_bad_fd_rejected;
    Alcotest.test_case "twenty small files" `Quick test_many_files;
    Alcotest.test_case "mkfs files visible through VFS" `Quick test_mkfs_files_visible_in_fs;
  ]
