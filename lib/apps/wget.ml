module Api = Resilix_kernel.Sysif.Api
module Message = Resilix_proto.Message
module Xxh64 = Resilix_checksum.Xxh64
module Md5 = Resilix_checksum.Md5

type result = {
  mutable finished : bool;
  mutable ok : bool;
  mutable bytes : int;
  mutable started_at : int;
  mutable finished_at : int;
  mutable digest : string;
  mutable md5 : string;
}

let fresh_result () =
  { finished = false; ok = false; bytes = 0; started_at = 0; finished_at = 0; digest = ""; md5 = "" }

(* Bytes asked for per recv. *)
let chunk = 32768

let make ~server ~port ~file ?(with_md5 = false) result () =
  result.started_at <- Api.now ();
  let finish ok =
    result.ok <- ok;
    result.finished_at <- Api.now ();
    result.finished <- true
  in
  match Sockets.socket Message.Tcp with
  | Error _ -> finish false
  | Ok sock -> (
      match Sockets.connect sock ~addr:server ~port with
      | Error _ -> finish false
      | Ok () -> (
          match Sockets.send_all sock (Bytes.of_string ("GET " ^ file ^ "\n")) with
          | Error _ -> finish false
          | Ok () ->
              let digest = Xxh64.init () in
              let md5 = if with_md5 then Some (Md5.init ()) else None in
              let rec pump () =
                match Sockets.recv sock ~len:chunk with
                | Error _ -> finish false
                | Ok data when Bytes.length data = 0 ->
                    (* Peer closed: transfer complete. *)
                    result.digest <- Xxh64.to_hex (Xxh64.digest digest);
                    (match md5 with
                    | Some ctx -> result.md5 <- Md5.hex (Md5.finalize ctx)
                    | None -> ());
                    ignore (Sockets.close sock);
                    finish true
                | Ok data ->
                    result.bytes <- result.bytes + Bytes.length data;
                    Xxh64.update digest data ~off:0 ~len:(Bytes.length data);
                    (match md5 with
                    | Some ctx -> Md5.update ctx data ~off:0 ~len:(Bytes.length data)
                    | None -> ());
                    pump ()
              in
              pump ()))
