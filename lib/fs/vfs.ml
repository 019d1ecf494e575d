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
  | F_file of { ino : int; mutable size : int }
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

let drain_ds_updates t =
  let plen = String.length degraded_prefix in
  let rec drain () =
    match Api.sendrec Wellknown.ds Message.Ds_check with
    | Ok (Sysif.Rx_msg { body = Message.Ds_check_reply { result = Ok (Some (key, value)) }; _ }) ->
        (if String.length key > plen && String.sub key 0 plen = degraded_prefix then
           let component = String.sub key plen (String.length key - plen) in
           match value with
           | Message.V_int v when v <> 0 -> Hashtbl.replace t.degraded_drivers component ()
           | _ -> Hashtbl.remove t.degraded_drivers component);
        drain ()
    | _ -> ()
  in
  drain ()

let fd_key (owner : Endpoint.t) fd = (owner.Endpoint.slot, owner.Endpoint.gen, fd)

(* ------------------------------------------------------------------ *)
(* Driver endpoint resolution via the data store                       *)
(* ------------------------------------------------------------------ *)

let resolve_driver t key ~fresh =
  let from_ds () =
    match Api.sendrec Wellknown.ds (Message.Ds_retrieve { key }) with
    | Ok (Sysif.Rx_msg { body = Message.Ds_retrieve_reply { result = Ok (Message.V_endpoint ep) }; _ })
      ->
        Hashtbl.replace t.drivers key ep;
        Some ep
    | _ -> None
  in
  if fresh then from_ds ()
  else match Hashtbl.find_opt t.drivers key with Some ep -> Some ep | None -> from_ds ()

(*@recovery-begin*)
(* One request to a character driver.  If the cached endpoint is
   stale (driver restarted while we were not looking), refresh once
   and retry the *request routing* — but a failure in the middle of an
   operation is reported up, never silently retried (Sec. 6.3). *)
let chardev_request t key msg =
  let attempt ep = Api.sendrec ep msg in
  if driver_degraded t key then Error Errno.E_degraded
  else
  match resolve_driver t key ~fresh:false with
  | None -> Error Errno.E_nodev
  | Some ep -> (
      match attempt ep with
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

let mfs_lookup path ~create =
  match Api.sendrec Wellknown.mfs (Message.Fs_lookup { path; create }) with
  | Ok (Sysif.Rx_msg { body = Message.Fs_lookup_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let mfs_truncate ino =
  match Api.sendrec Wellknown.mfs (Message.Fs_truncate { ino }) with
  | Ok (Sysif.Rx_msg { body = Message.Fs_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

let mfs_readwrite ~ino ~write ~pos ~grant ~len =
  match Api.sendrec Wellknown.mfs (Message.Fs_readwrite { ino; write; pos; grant; len }) with
  | Ok (Sysif.Rx_msg { body = Message.Fs_io_reply { result }; _ }) -> result
  | Ok _ -> Error Errno.E_io
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Request handlers                                                    *)
(* ------------------------------------------------------------------ *)

let handle_open t ~src ~path ~(flags : Message.open_flags) =
  match Hashtbl.find_opt t.chardevs path with
  | Some (key, minor) -> begin
      match chardev_request t key (Message.Dev_open { minor }) with
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
          let size =
            if flags.Message.trunc && size > 0 then begin
              ignore (mfs_truncate ino);
              0
            end
            else size
          in
          let fd = t.next_fd in
          t.next_fd <- t.next_fd + 1;
          Hashtbl.replace t.fds (fd_key src fd) { kind = F_file { ino; size }; pos = 0 };
          Ok fd
    end

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
        (* Stage the app data (writes) or make room (reads). *)
        let step =
          if write then begin
            match
              Api.safecopy_from ~owner:src ~grant ~grant_off:!progress ~local_addr:staging
                ~len:chunk
            with
            | Error e -> Error e
            | Ok () -> begin
                match file.kind with
                | F_file f -> begin
                    match Api.grant_create ~for_:Wellknown.mfs ~base:staging ~len:chunk ~access:Sysif.Read_only with
                    | Error e -> Error e
                    | Ok g ->
                        let r = mfs_readwrite ~ino:f.ino ~write:true ~pos:file.pos ~grant:g ~len:chunk in
                        ignore (Api.grant_revoke g);
                        (match r with
                        | Ok n ->
                            file.pos <- file.pos + n;
                            if file.pos > f.size then f.size <- file.pos;
                            Ok n
                        | Error e -> Error e)
                  end
                | F_chr { key; minor } -> begin
                    if driver_degraded t key then Error Errno.E_degraded
                    else
                    match resolve_driver t key ~fresh:false with
                    | None -> Error Errno.E_nodev
                    | Some ep -> begin
                        match Api.grant_create ~for_:ep ~base:staging ~len:chunk ~access:Sysif.Read_only with
                        | Error e -> Error e
                        | Ok g ->
                            let r =
                              match
                                Api.sendrec ep
                                  (Message.Dev_write { minor; pos = file.pos; grant = g; len = chunk })
                              with
                              | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
                              | Ok _ -> Error Errno.E_io
                              | Error (Errno.E_dead_src_dst | Errno.E_bad_endpoint) ->
                                  ignore (resolve_driver t key ~fresh:true);
                                  Error Errno.E_io
                              | Error e -> Error e
                            in
                            ignore (Api.grant_revoke g);
                            (match r with
                            | Ok n ->
                                file.pos <- file.pos + n;
                                Ok n
                            | Error e -> Error e)
                      end
                  end
              end
          end
          else begin
            (* read *)
            let fetched =
              match file.kind with
              | F_file f -> begin
                  match Api.grant_create ~for_:Wellknown.mfs ~base:staging ~len:chunk ~access:Sysif.Write_only with
                  | Error e -> Error e
                  | Ok g ->
                      let r = mfs_readwrite ~ino:f.ino ~write:false ~pos:file.pos ~grant:g ~len:chunk in
                      ignore (Api.grant_revoke g);
                      r
                end
              | F_chr { key; minor } -> begin
                  if driver_degraded t key then Error Errno.E_degraded
                  else
                  match resolve_driver t key ~fresh:false with
                  | None -> Error Errno.E_nodev
                  | Some ep -> begin
                      match Api.grant_create ~for_:ep ~base:staging ~len:chunk ~access:Sysif.Write_only with
                      | Error e -> Error e
                      | Ok g ->
                          let r =
                            match
                              Api.sendrec ep
                                (Message.Dev_read { minor; pos = file.pos; grant = g; len = chunk })
                            with
                            | Ok (Sysif.Rx_msg { body = Message.Dev_reply { result }; _ }) -> result
                            | Ok _ -> Error Errno.E_io
                            | Error (Errno.E_dead_src_dst | Errno.E_bad_endpoint) ->
                                ignore (resolve_driver t key ~fresh:true);
                                Error Errno.E_io
                            | Error e -> Error e
                          in
                          ignore (Api.grant_revoke g);
                          r
                    end
                end
            in
            match fetched with
            | Error e -> Error e
            | Ok n -> (
                if n = 0 then Ok 0
                else
                  match
                    Api.safecopy_to ~owner:src ~grant ~grant_off:!progress ~local_addr:staging
                      ~len:n
                  with
                  | Error e -> Error e
                  | Ok () ->
                      file.pos <- file.pos + n;
                      Ok n)
          end
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
      chardev_request t key (Message.Dev_ioctl { minor; op; arg })
  | Some _ -> Error Errno.E_inval

let body t () =
  (* Watch for breaker-driven degradation markers (policy v2). *)
  ignore (Api.sendrec Wellknown.ds (Message.Ds_subscribe { pattern = "degraded.*" }));
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Error _ -> ()
    | Ok (Sysif.Rx_notify { kind = Message.N_ds_update; _ }) -> drain_ds_updates t
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
            let result =
              match handle_ioctl t ~src ~fd ~op ~arg with Ok n -> Ok n | Error e -> Error e
            in
            ignore (Api.send src (Message.Vfs_io_reply { result }))
        | _ -> ignore (Api.send src (Message.Vfs_reply { result = Error Errno.E_inval }))
      end);
    loop ()
  in
  loop ()
