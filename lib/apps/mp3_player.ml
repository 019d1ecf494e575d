module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno

type result = {
  mutable finished : bool;
  mutable completed : bool;
  mutable bytes : int;
  mutable recoveries : int;
  mutable gave_up : bool;
}

let fresh_result () =
  { finished = false; completed = false; bytes = 0; recoveries = 0; gave_up = false }

(* Bytes per write, and reopen attempts before playback gives up. *)
let chunk = 8192
let max_retries = 50

let make ~song_bytes ?(recovery_aware = true) result () =
  let finish () = result.finished <- true in
  let rec open_device retries =
    match Fslib.open_file "/dev/audio" ~wr:true with
    | Ok fd -> Some fd
    | Error _ when recovery_aware && retries < max_retries ->
        (* The driver may be mid-reincarnation; give it a moment. *)
        Api.sleep 100_000;
        open_device (retries + 1)
    | Error _ -> None
  in
  match open_device 0 with
  | None ->
      result.gave_up <- true;
      finish ()
  | Some fd ->
      let song_pos = ref 0 in
      let fd = ref fd in
      let retries = ref 0 in
      let rec play () =
        if !song_pos >= song_bytes then begin
          result.completed <- true;
          ignore (Fslib.close !fd);
          finish ()
        end
        else begin
          let len = min chunk (song_bytes - !song_pos) in
          (* Synthesized samples: content does not matter to the codec. *)
          let data = Bytes.make len (Char.chr (!song_pos land 0xFF)) in
          match Fslib.write !fd data with
          | Ok n ->
              song_pos := !song_pos + n;
              result.bytes <- result.bytes + n;
              (* Pace roughly like a real player: sleep a fraction of
                 the audio time the chunk represents. *)
              Api.sleep (n * 4);
              play ()
          | Error Errno.E_again ->
              (* Driver spool full; back off briefly. *)
              Api.sleep 20_000;
              play ()
          | Error _ ->
              if recovery_aware && !retries < max_retries then begin
                incr retries;
                result.recoveries <- result.recoveries + 1;
                ignore (Fslib.close !fd);
                match open_device 0 with
                | Some nfd ->
                    (* Continue the song where it stopped: a hiccup,
                       not a restart (Sec. 6.3). *)
                    fd := nfd;
                    play ()
                | None ->
                    result.gave_up <- true;
                    finish ()
              end
              else begin
                result.gave_up <- true;
                finish ()
              end
        end
      in
      play ()
