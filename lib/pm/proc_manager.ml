module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Signal = Resilix_proto.Signal
module Status = Resilix_proto.Status
module Wellknown = Resilix_proto.Wellknown

type entry = {
  pid : int;
  name : string;
  endpoint : Endpoint.t;
  mutable zombie : Status.exit_status option;
  mutable waited : bool;
}

type t = { mutable table : entry list; mutable next_pid : int }

let create () = { table = []; next_pid = 100 }

let live_by_pid t pid =
  List.find_opt (fun e -> e.pid = pid && e.zombie = None && not e.waited) t.table

let live_by_name t name =
  List.find_opt (fun e -> String.equal e.name name && e.zombie = None && not e.waited) t.table

let by_endpoint t ep =
  List.find_opt (fun e -> Endpoint.equal e.endpoint ep && not e.waited) t.table

(* Collect kernel-reported exits, mark zombies, and forward SIGCHLD to
   the reincarnation server — this is how RS learns about defect
   classes 1-3 (Sec. 5.1). *)
let reap t =
  let rec loop () =
    match Api.reap_exit () with
    | None -> ()
    | Some (ep, name, status) ->
        (match by_endpoint t ep with
        | Some entry -> entry.zombie <- Some status
        | None ->
            (* A process PM did not spawn (boot server or test fiber):
               synthesize an entry so waitpid can still see it. *)
            t.table <-
              { pid = t.next_pid; name; endpoint = ep; zombie = Some status; waited = false }
              :: t.table;
            t.next_pid <- t.next_pid + 1);
        ignore (Api.notify Wellknown.rs (Message.N_sig Signal.Sig_chld));
        loop ()
  in
  loop ()

let next_zombie t pid =
  let candidate e =
    match e.zombie with
    | Some _ when not e.waited -> pid = -1 || e.pid = pid
    | Some _ | None -> false
  in
  (* Oldest first: the table is newest-first, so search from the end. *)
  List.fold_left (fun acc e -> if candidate e then Some e else acc) None t.table

let handle_spawn t ~src ~name ~program ~args ~priv ~mem_kb =
  let result =
    match Api.proc_create ~name ~program ~args ~priv ~mem_kb with
    | Error e -> Error e
    | Ok ep ->
        let pid = t.next_pid in
        t.next_pid <- t.next_pid + 1;
        t.table <- { pid; name; endpoint = ep; zombie = None; waited = false } :: t.table;
        Ok (ep, pid)
  in
  ignore (Api.send src (Message.Pm_spawn_reply { result }))

let handle_kill t ~src ~pid ~signal =
  let result =
    match live_by_pid t pid with
    | None -> Error Errno.E_noent
    | Some entry -> (
        match Api.proc_kill entry.endpoint signal with Ok () -> Ok () | Error e -> Error e)
  in
  ignore (Api.send src (Message.Pm_reply { result }))

let handle_waitpid t ~src ~pid =
  let result =
    match next_zombie t pid with
    | Some entry ->
        entry.waited <- true;
        Ok (entry.pid, entry.name, Option.get entry.zombie)
    | None -> Error Errno.E_again
  in
  ignore (Api.send src (Message.Pm_wait_reply { result }))

let handle_pidof t ~src ~name =
  let result = match live_by_name t name with Some e -> Ok e.pid | None -> Error Errno.E_noent in
  ignore (Api.send src (Message.Pm_pidof_reply { result }))

let body t () =
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Ok (Sysif.Rx_notify { kind = Message.N_sig Signal.Sig_chld; _ }) -> reap t
    | Ok (Sysif.Rx_notify _) -> ()
    | Ok (Sysif.Rx_msg { src; body }) -> begin
        match body with
        | Message.Pm_spawn { name; program; args; priv; mem_kb } ->
            handle_spawn t ~src ~name ~program ~args ~priv ~mem_kb
        | Message.Pm_kill { pid; signal } -> handle_kill t ~src ~pid ~signal
        | Message.Pm_waitpid { pid } -> handle_waitpid t ~src ~pid
        | Message.Pm_pidof { name } -> handle_pidof t ~src ~name
        | _ -> ignore (Api.send src (Message.Pm_reply { result = Error Errno.E_inval }))
      end
    | Error _ -> ());
    loop ()
  in
  loop ()
