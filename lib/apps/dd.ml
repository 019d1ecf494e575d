module Api = Resilix_kernel.Sysif.Api
module Xxh64 = Resilix_checksum.Xxh64
module Sha1 = Resilix_checksum.Sha1

type result = {
  mutable finished : bool;
  mutable ok : bool;
  mutable bytes : int;
  mutable started_at : int;
  mutable finished_at : int;
  mutable digest : string;
  mutable sha1 : string;
}

let fresh_result () =
  { finished = false; ok = false; bytes = 0; started_at = 0; finished_at = 0; digest = ""; sha1 = "" }

(* Bytes per read. *)
let chunk = 61440

let make ~path ?(with_sha1 = false) result () =
  result.started_at <- Api.now ();
  let finish ok =
    result.ok <- ok;
    result.finished_at <- Api.now ();
    result.finished <- true
  in
  match Fslib.open_file path with
  | Error _ -> finish false
  | Ok fd ->
      let digest = Xxh64.init () in
      let sha1 = if with_sha1 then Some (Sha1.init ()) else None in
      (* Hashed straight from the bounce buffer; an empty read (end of
         file) hashes nothing. *)
      let hash buf off len =
        Xxh64.update digest buf ~off ~len;
        (match sha1 with Some ctx -> Sha1.update ctx buf ~off ~len | None -> ());
        len
      in
      let rec pump () =
        match Fslib.read_with fd ~len:chunk hash with
        | Error _ -> finish false
        | Ok 0 ->
            result.digest <- Xxh64.to_hex (Xxh64.digest digest);
            (match sha1 with Some ctx -> result.sha1 <- Sha1.hex (Sha1.finalize ctx) | None -> ());
            ignore (Fslib.close fd);
            finish true
        | Ok n ->
            result.bytes <- result.bytes + n;
            pump ()
      in
      pump ()
