
type result = {
  mutable finished : bool;
  mutable success : bool;
  mutable error_reported : bool;
  mutable blocks_burned : int;
}

let fresh_result () =
  { finished = false; success = false; error_reported = false; blocks_burned = 0 }

let block = 16384

let make ~data result () =
  let fail () =
    (* No recovery is possible: tell the user (Sec. 6.3). *)
    result.error_reported <- true;
    result.finished <- true
  in
  match Fslib.open_file "/dev/cd" ~wr:true with
  | Error _ -> fail ()
  | Ok fd -> (
      match Fslib.ioctl fd ~op:"burn_start" ~arg:0 with
      | Error _ -> fail ()
      | Ok _ ->
          let total = String.length data in
          let rec burn off =
            if off >= total then begin
              match Fslib.ioctl fd ~op:"burn_finish" ~arg:0 with
              | Ok _ ->
                  ignore (Fslib.close fd);
                  result.success <- true;
                  result.finished <- true
              | Error _ -> fail ()
            end
            else begin
              let len = min block (total - off) in
              match Fslib.write fd (Bytes.of_string (String.sub data off len)) with
              | Ok _ ->
                  result.blocks_burned <- result.blocks_burned + 1;
                  burn (off + len)
              | Error _ -> fail ()
            end
          in
          burn 0)
