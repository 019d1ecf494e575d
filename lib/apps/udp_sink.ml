module Api = Resilix_kernel.Sysif.Api

let make ?ack_every ~port received () =
  match Sockets.socket Resilix_proto.Message.Udp with
  | Error _ -> ()
  | Ok sock -> (
      match Sockets.listen sock ~port with
      | Error _ -> ()
      | Ok () ->
          let rec pump n =
            match Sockets.recvfrom sock ~len:2048 with
            | Ok (_, src_ip, src_port) ->
                incr received;
                (match ack_every with
                | Some k when n mod k = 0 ->
                    ignore (Sockets.sendto sock ~addr:src_ip ~port:src_port (Bytes.of_string "ack"))
                | _ -> ());
                pump (n + 1)
            | Error _ ->
                Api.sleep 50_000;
                pump n
          in
          pump 0)
