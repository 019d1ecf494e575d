(* Regression test: the CRC-32 tables are shared by every domain of a
   parallel campaign.  Eight domains, released together by an atomic
   barrier, each compute the process's first CRC; every one must get
   the right value and none may raise (a lazily built table raised
   [CamlinternalLazy.Undefined] in the domains that lost the race). *)

let domains = 8
let check_value = 0xCBF43926 (* CRC-32 of "123456789" *)

let () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let worker () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Resilix_checksum.Crc32.string "123456789"
  in
  let workers = List.init domains (fun _ -> Domain.spawn worker) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  let failures =
    List.filter_map
      (fun d ->
        match Domain.join d with
        | crc when crc = check_value -> None
        | crc -> Some (Printf.sprintf "wrong CRC %08x" crc)
        | exception e -> Some (Printexc.to_string e))
      workers
  in
  List.iter (Printf.printf "FAIL %s\n") failures;
  if failures <> [] then exit 1;
  Printf.printf "ok   %d domains computed their first CRC-32 concurrently\n" domains
