module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Wellknown = Resilix_proto.Wellknown
module Metrics = Resilix_obs.Metrics

let staging = 0x20000
let staging_size = 65536
let memory_kb = 1024

type file_kind =
  | F_file of { ino : int }
  | F_chr of { key : string; minor : int }

type open_file = { kind : file_kind; mutable pos : int }

(* Counter handles resolved once at [create]; bumping a handle skips
   the by-name registry lookup on the request path. *)
type ctrs = { c_degraded_rejects : Metrics.counter; c_stale_endpoints : Metrics.counter }

type t = {
  ctrs : ctrs;
  chardevs : (string, string * int) Hashtbl.t; (* path -> (ds key, minor) *)
  fds : (int * int * int, open_file) Hashtbl.t; (* (owner slot, owner gen, fd) *)
  mutable next_fd : int;
  drivers : (string, Endpoint.t) Hashtbl.t; (* ds key -> cached endpoint *)
  degraded_drivers : (string, unit) Hashtbl.t; (* ds key -> breaker open *)
}

let create ?(chardevs = []) ~metrics () =
  let t =
    {
      ctrs =
        {
          c_degraded_rejects = Metrics.counter metrics "vfs.chardev.degraded_rejects";
          c_stale_endpoints = Metrics.counter metrics "vfs.chardev.stale_endpoints";
        };
      chardevs = Hashtbl.create 8;
      fds = Hashtbl.create 32;
      next_fd = 3;
      drivers = Hashtbl.create 8;
      degraded_drivers = Hashtbl.create 4;
    }
  in
  List.iter (fun (path, target) -> Hashtbl.replace t.chardevs path target) chardevs;
  t

let degraded t = List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.degraded_drivers [])

(* The degradation contract, VFS side: RS publishes ["degraded.<key>"]
   when a driver's circuit breaker opens; while the record is live we
   fail requests for that driver immediately with [E_degraded] instead
   of letting applications block on (or crash into) a parked driver. *)
let degraded_prefix = "degraded."

let driver_degraded t key =
  if Hashtbl.mem t.degraded_drivers key then begin
    Metrics.incr t.ctrs.c_degraded_rejects;
    true
  end
  else false

let ds_update t key value =
  let plen = String.length degraded_prefix in
  if String.length key > plen && String.sub key 0 plen = degraded_prefix then
    let component = String.sub key plen (String.length key - plen) in
    match value with
    | Message.V_int v when v <> 0 -> Hashtbl.replace t.degraded_drivers component ()
    | _ -> Hashtbl.remove t.degraded_drivers component

let fd_key (owner : Endpoint.t) fd = (owner.Endpoint.slot, owner.Endpoint.gen, fd)

(* ------------------------------------------------------------------ *)
(* Driver endpoint resolution via the data store                       *)
(* ------------------------------------------------------------------ *)

let resolve_driver t key ~fresh =
  let from_ds () =
    let ep = Api.ds_retrieve_endpoint key in
    Option.iter (Hashtbl.replace t.drivers key) ep;
    ep
  in
  if fresh then from_ds ()
  else match Hashtbl.find_opt t.drivers key with Some ep -> Some ep | None -> from_ds ()

(*@recovery-begin*)
(* One request to a character driver: [request ep] sends it to the
   driver's endpoint.  If the cached endpoint is stale (driver
   restarted while we were not looking), refresh once and retry the
   *request routing* — but a failure in the middle of an operation is
   reported up, never silently retried (Sec. 6.3). *)
let chardev_request t key request =
  if driver_degraded t key then Error Errno.E_degraded
  else
  match resolve_driver t key ~fresh:false with
  | None -> Error Errno.E_nodev
  | Some ep -> (
      match request ep with
      | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
      | Ok _ -> Error Errno.E_io
      | Error (Errno.E_dead_src_dst | Errno.E_bad_endpoint) -> (
          Metrics.incr t.ctrs.c_stale_endpoints;
          (* Refresh the endpoint for the *next* operation; this one
             fails upward. *)
          match resolve_driver t key ~fresh:true with
          | Some fresh_ep when not (Endpoint.equal fresh_ep ep) ->
              Api.emit "vfs"
                (Resilix_obs.Event.Retry { component = key; operation = "rebind"; count = 1 });
              Error Errno.E_io
          | _ -> Error Errno.E_io)
      | Error e -> Error e)

(*@recovery-end*)
(* ------------------------------------------------------------------ *)
(* MFS interaction                                                     *)
(* ------------------------------------------------------------------ *)

let mfs msg reply = Api.call Wellknown.mfs msg reply

let mfs_lookup path ~create =
  mfs (Message.Fs_lookup { path; create }) (function
    | Message.Fs_lookup_reply { result } -> Some result
    | _ -> None)

let mfs_truncate ino =
  mfs (Message.Fs_truncate { ino }) (function Message.Fs_reply { result } -> Some result | _ -> None)

let mfs_readwrite ~ino ~write ~pos ~grant ~len =
  mfs (Message.Fs_readwrite { ino; write; pos; grant; len }) (function
    | Message.Fs_io_reply { result } -> Some result
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let handle_open t ~src ~path ~(flags : Message.open_flags) =
  match Hashtbl.find_opt t.chardevs path with
  | Some (key, minor) -> begin
      match chardev_request t key (fun ep -> Api.sendrec ep (Message.Dev_open { minor })) with
      | Ok _ ->
          let fd = t.next_fd in
          t.next_fd <- t.next_fd + 1;
          Hashtbl.replace t.fds (fd_key src fd) { kind = F_chr { key; minor }; pos = 0 };
          Ok fd
      | Error e -> Error e
    end
  | None -> begin
      match mfs_lookup path ~create:flags.Message.create with
      | Error e -> Error e
      | Ok (ino, size) ->
          if flags.Message.trunc && size > 0 then ignore (mfs_truncate ino);
          let fd = t.next_fd in
          t.next_fd <- t.next_fd + 1;
          Hashtbl.replace t.fds (fd_key src fd) { kind = F_file { ino }; pos = 0 };
          Ok fd
    end

(* Move one staging buffer of [len] bytes to ([write]) or from the
   open file's backing object: MFS for a regular file, the driver for
   a character device.  A dead driver refreshes the cached endpoint
   for the next operation and fails this one upward (Sec. 6.3). *)
let transfer t file ~write ~len =
  let access = if write then Sysif.Read_only else Sysif.Write_only in
  match file.kind with
  | F_file { ino } ->
      Api.with_grant ~for_:Wellknown.mfs ~base:staging ~len ~access (fun grant ->
          mfs_readwrite ~ino ~write ~pos:file.pos ~grant ~len)
  | F_chr { key; minor } ->
      let pos = file.pos in
      chardev_request t key (fun ep ->
          Api.with_grant ~for_:ep ~base:staging ~len ~access (fun grant ->
              Api.sendrec ep
                (if write then Message.Dev_write { minor; pos; grant; len }
                 else Message.Dev_read { minor; pos; grant; len })))

(* Move [len] bytes between the app's grant and the backing object in
   staging-buffer-sized pieces. *)
let handle_io t ~src ~fd ~grant ~len ~write =
  match Hashtbl.find_opt t.fds (fd_key src fd) with
  | None -> Error Errno.E_bad_fd
  | Some file -> begin
      let progress = ref 0 in
      let result = ref (Ok ()) in
      let continue = ref true in
      while !continue && !progress < len do
        let chunk = min staging_size (len - !progress) in
        (* Stage the app data (writes), move the chunk, then hand
           what was read back to the app. *)
        let step =
          let ( let* ) = Result.bind in
          let* () =
            if write then
              Api.safecopy_from ~owner:src ~grant ~grant_off:!progress ~local_addr:staging
                ~len:chunk
            else Ok ()
          in
          let* n = transfer t file ~write ~len:chunk in
          let* () =
            if write || n = 0 then Ok ()
            else
              Api.safecopy_to ~owner:src ~grant ~grant_off:!progress ~local_addr:staging ~len:n
          in
          file.pos <- file.pos + n;
          Ok n
        in
        match step with
        | Ok 0 -> continue := false (* EOF / device has nothing *)
        | Ok n ->
            progress := !progress + n;
            if n < staging_size && !progress < len && not write then continue := false
        | Error e ->
            result := Error e;
            continue := false
      done;
      match !result with
      | Ok () -> Ok !progress
      | Error e -> if !progress > 0 then Ok !progress else Error e
    end

let handle_ioctl t ~src ~fd ~op ~arg =
  match Hashtbl.find_opt t.fds (fd_key src fd) with
  | None -> Error Errno.E_bad_fd
  | Some { kind = F_chr { key; minor }; _ } ->
      chardev_request t key (fun ep -> Api.sendrec ep (Message.Dev_ioctl { minor; op; arg }))
  | Some _ -> Error Errno.E_inval

let body t () =
  (* Watch for breaker-driven degradation markers (policy v2). *)
  ignore (Api.ds_subscribe "degraded.*");
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Error _ -> ()
    | Ok (Sysif.Rx_notify { kind = Message.N_ds_update; _ }) -> Api.ds_check (ds_update t)
    | Ok (Sysif.Rx_notify _) -> ()
    | Ok (Sysif.Rx_msg { src; body }) -> begin
        match body with
        | Message.Vfs_open { path; flags } ->
            let result = handle_open t ~src ~path ~flags in
            ignore (Api.send src (Message.Vfs_open_reply { result }))
        | Message.Vfs_read { fd; grant; len } ->
            let result = handle_io t ~src ~fd ~grant ~len ~write:false in
            ignore (Api.send src (Message.Vfs_io_reply { result }))
        | Message.Vfs_write { fd; grant; len } ->
            let result = handle_io t ~src ~fd ~grant ~len ~write:true in
            ignore (Api.send src (Message.Vfs_io_reply { result }))
        | Message.Vfs_lseek { fd; pos } -> begin
            match Hashtbl.find_opt t.fds (fd_key src fd) with
            | Some file when pos >= 0 ->
                file.pos <- pos;
                ignore (Api.send src (Message.Vfs_reply { result = Ok () }))
            | Some _ -> ignore (Api.send src (Message.Vfs_reply { result = Error Errno.E_inval }))
            | None -> ignore (Api.send src (Message.Vfs_reply { result = Error Errno.E_bad_fd }))
          end
        | Message.Vfs_close { fd } ->
            let existed = Hashtbl.mem t.fds (fd_key src fd) in
            Hashtbl.remove t.fds (fd_key src fd);
            ignore
              (Api.send src
                 (Message.Vfs_reply
                    { result = (if existed then Ok () else Error Errno.E_bad_fd) }))
        | Message.Vfs_ioctl { fd; op; arg } ->
            let result = handle_ioctl t ~src ~fd ~op ~arg in
            ignore (Api.send src (Message.Vfs_io_reply { result }))
        | _ -> ignore (Api.send src (Message.Vfs_reply { result = Error Errno.E_inval }))
      end);
    loop ()
  in
  loop ()
