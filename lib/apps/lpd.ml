module Api = Resilix_kernel.Sysif.Api
module Errno = Resilix_proto.Errno

type result = {
  mutable finished : bool;
  mutable jobs_done : int;
  mutable resubmissions : int;
  mutable gave_up : bool;
}

let fresh_result () = { finished = false; jobs_done = 0; resubmissions = 0; gave_up = false }

(* Reopen and resubmit attempts per job before the queue is abandoned. *)
let max_retries = 25

let make ~jobs result () =
  let rec open_printer retries =
    match Fslib.open_file "/dev/printer" ~wr:true with
    | Ok fd -> Some fd
    | Error _ when retries < max_retries ->
        Api.sleep 100_000;
        open_printer (retries + 1)
    | Error _ -> None
  in
  let rec print_job job retries =
    match open_printer 0 with
    | None -> false
    | Some fd -> (
        let outcome = Fslib.write fd (Bytes.of_string job) in
        ignore (Fslib.close fd);
        match outcome with
        | Ok _ -> true
        | Error Errno.E_busy ->
            Api.sleep 50_000;
            print_job job retries
        | Error _ ->
            if retries < max_retries then begin
              (* The driver died mid-job: reissue the whole job.  The
                 user may get duplicate pages, but the job completes. *)
              result.resubmissions <- result.resubmissions + 1;
              Api.sleep 200_000;
              print_job job (retries + 1)
            end
            else false)
  in
  let rec run = function
    | [] -> ()
    | job :: rest ->
        if print_job job 0 then begin
          result.jobs_done <- result.jobs_done + 1;
          run rest
        end
        else result.gave_up <- true
  in
  run jobs;
  result.finished <- true
