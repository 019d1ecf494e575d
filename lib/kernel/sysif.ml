(* The system interface: the effect through which every simulated
   process interacts with the kernel, plus the [Api] wrappers that give
   process code a readable, MINIX-flavoured vocabulary.

   Process bodies are plain OCaml functions run as effect-handler
   fibers by the kernel; performing [Sys op] suspends the fiber until
   the kernel completes the operation.  This file deliberately has no
   kernel dependencies so that servers, drivers and applications depend
   only on [Sysif] + [Proto]. *)

module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Status = Resilix_proto.Status
module Signal = Resilix_proto.Signal
module Privilege = Resilix_proto.Privilege
module Event = Resilix_obs.Event
module Metrics = Resilix_obs.Metrics

(* What [receive] returns: a rendezvous message or a pending
   notification. *)
type rx =
  | Rx_msg of { src : Endpoint.t; body : Message.t }
  | Rx_notify of { src : Endpoint.t; kind : Message.notify_kind }

(* Receive filter. *)
type source = Any | From of Endpoint.t

type grant_access = Read_only | Write_only | Read_write

(* A process's I/O ports: each access runs in the calling fiber and
   returns in place (DESIGN.md §6k). *)
type ports = { port_in : int -> int; port_out : int -> int -> unit }

type 'a syscall =
  (* --- IPC --- *)
  | Send : Endpoint.t * Message.t -> (unit, Errno.t) result syscall
  | Asend : Endpoint.t * Message.t -> (unit, Errno.t) result syscall
  | Receive : source -> (rx, Errno.t) result syscall
  | Sendrec : Endpoint.t * Message.t -> (rx, Errno.t) result syscall
  | Notify : Endpoint.t * Message.notify_kind -> (unit, Errno.t) result syscall
  (* --- time and identity --- *)
  | Sleep : int -> unit syscall
  | Yield : int -> unit syscall (* consume simulated CPU time *)
  | Now : int syscall
  | Self : Endpoint.t syscall
  | My_memory : Memory.t syscall
  | My_ports : ports syscall
  | My_args : string list syscall
  | My_name : string syscall
  | Random : int -> int syscall
  | Exit : Status.exit_status -> unit syscall
  (* --- observability --- *)
  | Obs_emit : Event.level * string * Event.payload -> unit syscall (* level, subsystem, payload *)
  | Metric_add : string * int -> unit syscall (* named counter += n *)
  (* Handle resolution: look the instrument up once (at registration
     time) and bump the returned handle directly thereafter, instead
     of paying a hashtable lookup per event on the fast path. *)
  | Metric_counter : string -> Metrics.counter syscall
  | Metric_gauge : string -> Metrics.gauge syscall
  (* --- kernel calls --- *)
  | Safecopy : {
      dir : [ `Read | `Write ];
      owner : Endpoint.t;
      grant : int;
      grant_off : int;
      local_addr : int;
      len : int;
    }
      -> (unit, Errno.t) result syscall
  | Grant_create : {
      for_ : Endpoint.t;
      base : int;
      len : int;
      access : grant_access;
    }
      -> (int, Errno.t) result syscall
  | Grant_revoke : int -> (unit, Errno.t) result syscall
  | Irq_register : int -> (unit, Errno.t) result syscall
  | Alarm : int -> (unit, Errno.t) result syscall
  | Iommu_map : int -> (int, Errno.t) result syscall
  | Iommu_unmap : int -> (unit, Errno.t) result syscall
  | Proc_create : {
      name : string;
      program : string;
      args : string list;
      priv : Privilege.t;
      mem_kb : int;
    }
      -> (Endpoint.t, Errno.t) result syscall
  | Proc_kill : Endpoint.t * Signal.t -> (unit, Errno.t) result syscall
  | Reap_exit : (Endpoint.t * string * Status.exit_status) option syscall
  | Privctl : Endpoint.t * Privilege.t -> (unit, Errno.t) result syscall

type _ Effect.t += Sys : 'a syscall -> 'a Effect.t

(* Raised inside a fiber to unwind it when the kernel kills the
   process; the kernel's fiber wrapper translates it back into the
   carried exit status.  Process code must never catch it. *)
exception Killed_exn of Status.exit_status

(* Raised by [Api.panic]. *)
exception Panic_exn of string

(* Raised by a refused port access. *)
exception Port_refused

(* The names under which kernel calls are privilege-checked; a
   process's [kcalls] whitelist becomes a bitmask over this table. *)
let kcall_names =
  [|
    "safecopy";
    "grant_create";
    "grant_revoke";
    "devio";
    "irqctl";
    "alarm";
    "iommu_map";
    "proc_create";
    "proc_kill";
    "reap_exit";
    "privctl";
  |]

(* Index into [kcall_names] of each kernel call, or [None] when the
   operation is unrestricted. *)
let kcall_index : type a. a syscall -> int option = function
  | Safecopy _ -> Some 0
  | Grant_create _ -> Some 1
  | Grant_revoke _ -> Some 2
  | Irq_register _ -> Some 4
  | Alarm _ -> Some 5
  | Iommu_map _ | Iommu_unmap _ -> Some 6
  | Proc_create _ -> Some 7
  | Proc_kill _ -> Some 8
  | Reap_exit -> Some 9
  | Privctl _ -> Some 10
  | Send _ | Asend _ | Receive _ | Sendrec _ | Notify _ | Sleep _ | Yield _ | Now | Self
  | My_memory | My_ports | My_args | My_name | Random _ | Exit _ | Obs_emit _ | Metric_add _
  | Metric_counter _ | Metric_gauge _ ->
      None

let kcall_mask = function
  | Privilege.All -> -1
  | Privilege.Only names ->
      let mask = ref 0 in
      Array.iteri
        (fun i name -> if List.mem name names then mask := !mask lor (1 lsl i))
        kcall_names;
      !mask

let kcall_allowed mask op =
  match kcall_index op with None -> true | Some i -> mask land (1 lsl i) <> 0

(* Port accesses are no syscall, but checked under "devio". *)
let devio_allowed mask = mask land (1 lsl 3) <> 0

(* Convenience wrappers used by all process code. *)
module Api = struct
  let perform op = Effect.perform (Sys op)

  let send dst msg = perform (Send (dst, msg))
  let asend dst msg = perform (Asend (dst, msg))
  let receive filter = perform (Receive filter)
  let sendrec dst msg = perform (Sendrec (dst, msg))
  let notify dst kind = perform (Notify (dst, kind))
  let sleep d = perform (Sleep d)
  let yield ?(cost = 1) () = perform (Yield cost)
  let now () = perform Now
  let self () = perform Self
  let memory () = perform My_memory
  let ports () = perform My_ports
  let args () = perform My_args
  let name () = perform My_name
  let random n = perform (Random n)

  let exit status : 'a =
    perform (Exit status);
    assert false

  let panic msg : 'a = raise (Panic_exn msg)
  let emit ?(level = Event.Info) subsystem payload = perform (Obs_emit (level, subsystem, payload))

  let trace subsystem fmt =
    Format.kasprintf (fun text -> emit subsystem (Event.Log { text })) fmt

  let metric_add name n = perform (Metric_add (name, n))
  let metric_incr name = metric_add name 1
  let metric_counter name = perform (Metric_counter name)
  let metric_gauge name = perform (Metric_gauge name)

  let safecopy_from ~owner ~grant ~grant_off ~local_addr ~len =
    perform (Safecopy { dir = `Read; owner; grant; grant_off; local_addr; len })

  let safecopy_to ~owner ~grant ~grant_off ~local_addr ~len =
    perform (Safecopy { dir = `Write; owner; grant; grant_off; local_addr; len })

  let grant_create ~for_ ~base ~len ~access = perform (Grant_create { for_; base; len; access })
  let grant_revoke id = perform (Grant_revoke id)
  let irq_register line = perform (Irq_register line)
  let alarm delay = perform (Alarm delay)
  let iommu_map grant = perform (Iommu_map grant)
  let iommu_unmap handle = perform (Iommu_unmap handle)

  (* The client half of every request/reply protocol: [reply] picks
     the expected reply's result; any other reply is [E_io] and IPC
     errors pass through unchanged. *)
  let call dst msg reply =
    match sendrec dst msg with
    | Ok (Rx_msg { body; _ }) -> ( match reply body with Some r -> r | None -> Error Errno.E_io)
    | Ok (Rx_notify _) -> Error Errno.E_io
    | Error e -> Error e

  let with_grant ~for_ ~base ~len ~access f =
    match grant_create ~for_ ~base ~len ~access with
    | Error e -> Error e
    | Ok g ->
        let r = f g in
        ignore (grant_revoke g);
        r

  (* The data-store client (MINIX's ds_publish/ds_retrieve/...). *)
  let ds = Resilix_proto.Wellknown.ds
  let ds_reply = function Message.Ds_reply { result } -> Some result | _ -> None
  let ds_publish key value = call ds (Message.Ds_publish { key; value }) ds_reply
  let ds_delete key = call ds (Message.Ds_delete { key }) ds_reply
  let ds_subscribe pattern = call ds (Message.Ds_subscribe { pattern }) ds_reply

  let ds_retrieve_endpoint key =
    match
      call ds (Message.Ds_retrieve { key }) (function
        | Message.Ds_retrieve_reply { result } -> Some result
        | _ -> None)
    with
    | Ok (Message.V_endpoint ep) -> Some ep
    | Ok _ | Error _ -> None

  let rec ds_check f =
    match
      call ds Message.Ds_check (function Message.Ds_check_reply { result } -> Some result | _ -> None)
    with
    | Ok (Some (key, value)) ->
        f key value;
        ds_check f
    | Ok None | Error _ -> ()

  let proc_create ~name ~program ~args ~priv ~mem_kb =
    perform (Proc_create { name; program; args; priv; mem_kb })

  let proc_kill target signal = perform (Proc_kill (target, signal))
  let reap_exit () = perform Reap_exit
  let privctl target priv = perform (Privctl (target, priv))
end
