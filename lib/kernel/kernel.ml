module Engine = Resilix_sim.Engine
module Trace = Resilix_sim.Trace
module Rng = Resilix_sim.Rng
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Status = Resilix_proto.Status
module Signal = Resilix_proto.Signal
module Privilege = Resilix_proto.Privilege
module Wellknown = Resilix_proto.Wellknown
module Event = Resilix_obs.Event
module Metrics = Resilix_obs.Metrics

type costs = {
  syscall : int;
  ipc : int;
  notify : int;
  copy_base : int;
  copy_bytes_per_us : int;
  devio : int;
  spawn : int;
}

let default_costs =
  { syscall = 1; ipc = 2; notify = 1; copy_base = 1; copy_bytes_per_us = 2000; devio = 2; spawn = 3000 }

(* Hot-path handles into the metric registry: the kernel bumps these
   on every IPC/copy/interrupt, so it resolves each counter once at
   creation instead of by name per operation. *)
type counters = {
  c_messages : Metrics.counter;
  c_notifications : Metrics.counter;
  c_async_messages : Metrics.counter;
  c_safecopies : Metrics.counter;
  c_safecopy_bytes : Metrics.counter;
  c_devios : Metrics.counter;
  c_irqs : Metrics.counter;
  c_irqs_dropped : Metrics.counter;
  c_spawns : Metrics.counter;
  c_kills : Metrics.counter;
  c_exits : Metrics.counter;
}

module String_set = Set.Make (String)

type grant = { for_ : Endpoint.t; base : int; len : int; access : Sysif.grant_access }

type pstate =
  | Running
  | Runnable of { event : Engine.handle; abort : exn -> unit }
  | Recv_wait of {
      filter : Sysif.source;
      for_reply : bool;
          (* true while in the receive phase of sendrec: notifications
             must queue rather than intercept the reply (MINIX's
             MF_REPLY_PEND).  Messages are not held back: a send or an
             asend from the sendrec's destination completes the call as
             its reply. *)
      resume : (Sysif.rx, Errno.t) result -> unit;
      abort : exn -> unit;
    }
  | Send_wait of send_wait
  | Sleep_wait of { event : Engine.handle; abort : exn -> unit }
  | Dead

and send_wait = {
  dst_slot : int;
  msg : Message.t;
  completion : completion;
  sw_abort : exn -> unit;
}

and completion =
  | C_send of ((unit, Errno.t) result -> unit)
  | C_sendrec of ((Sysif.rx, Errno.t) result -> unit)

type proc = {
  slot : int;
  gen : int;
  p_name : string;
  p_args : string list;
  mutable priv : Privilege.t;
  mutable kcall_mask : int; (* [priv.kcalls] as a Sysif.kcall_mask *)
  memory : Memory.t;
  mutable state : pstate;
  mutable kill_pending : Status.exit_status option;
  mutable pending_notifies : (Endpoint.t * Message.notify_kind) list; (* FIFO *)
  async_in : (Endpoint.t * Message.t) Queue.t;
  senders : int Queue.t; (* slots blocked sending to me *)
  grants : (int, grant) Hashtbl.t;
  mutable next_grant : int;
  mutable alarm : Engine.handle option;
  mutable peers : String_set.t; (* names we received messages from: implicit reply right *)
}

type iommu_entry = { owner_slot : int; owner_gen : int; grant_id : int }

type t = {
  engine : Engine.t;
  trace : Trace.t;
  rng : Rng.t;
  mutable procs : proc option array;
  mutable slot_gen : int array; (* next generation per slot *)
  programs : (string, unit -> unit) Hashtbl.t;
  mutable bus_read : int -> int;
  mutable bus_write : int -> int -> unit;
  irq_table : (int, int) Hashtbl.t; (* line -> slot *)
  iommu : (int, iommu_entry) Hashtbl.t;
  mutable next_dma_handle : int;
  exit_queue : (Endpoint.t * string * Status.exit_status) Queue.t;
  metrics : Metrics.t;
  ctr : counters;
}

let create ~engine ~trace ~rng ?metrics () =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    engine;
    trace;
    rng;
    procs = Array.make 64 None;
    slot_gen = Array.make 64 0;
    programs = Hashtbl.create 32;
    bus_read = (fun _ -> raise Sysif.Port_refused);
    bus_write = (fun _ _ -> raise Sysif.Port_refused);
    irq_table = Hashtbl.create 16;
    iommu = Hashtbl.create 16;
    next_dma_handle = 1;
    exit_queue = Queue.create ();
    metrics;
    ctr =
      {
        c_messages = Metrics.counter metrics "kernel.ipc.messages";
        c_notifications = Metrics.counter metrics "kernel.ipc.notifications";
        c_async_messages = Metrics.counter metrics "kernel.ipc.async_messages";
        c_safecopies = Metrics.counter metrics "kernel.safecopy.calls";
        c_safecopy_bytes = Metrics.counter metrics "kernel.safecopy.bytes";
        c_devios = Metrics.counter metrics "kernel.devio.calls";
        c_irqs = Metrics.counter metrics "kernel.irq.raised";
        c_irqs_dropped = Metrics.counter metrics "kernel.irq.dropped";
        c_spawns = Metrics.counter metrics "kernel.proc.spawns";
        c_kills = Metrics.counter metrics "kernel.proc.kills";
        c_exits = Metrics.counter metrics "kernel.proc.exits";
      };
  }

let engine t = t.engine
let trace t = t.trace
let metrics t = t.metrics
let set_bus t ~read ~write =
  t.bus_read <- read;
  t.bus_write <- write
let register_program t key main = Hashtbl.replace t.programs key main

let kemit t ?level payload = Trace.emit_event t.trace ~now:(Engine.now t.engine) ?level "kernel" payload

let proc_of_slot t slot =
  if slot < 0 || slot >= Array.length t.procs then None else t.procs.(slot)

(* Live process named by [ep], checking the generation: a stale
   endpoint (the process died and possibly got replaced) is
   distinguishable from a never-valid one. *)
type ep_lookup = Lookup_ok of proc | Lookup_stale | Lookup_bad

let lookup_ep t (ep : Endpoint.t) =
  if ep.Endpoint.slot < 0 || ep.Endpoint.slot >= Array.length t.procs then Lookup_bad
  else
    match t.procs.(ep.Endpoint.slot) with
    | Some p when p.gen = ep.Endpoint.gen && p.state <> Dead -> Lookup_ok p
    | Some _ | None ->
        (* Any generation that was ever allocated for this slot but is
           no longer live names a dead (possibly replaced) process. *)
        if ep.Endpoint.gen <= t.slot_gen.(ep.Endpoint.slot) && ep.Endpoint.gen > 0 then Lookup_stale
        else Lookup_bad

let ep_of_proc p = Endpoint.make ~slot:p.slot ~gen:p.gen
let alive t ep = match lookup_ep t ep with Lookup_ok _ -> true | Lookup_stale | Lookup_bad -> false

let find_by_name t name =
  let found = ref None in
  Array.iter
    (fun p ->
      match p with
      | Some p when p.state <> Dead && String.equal p.p_name name && !found = None ->
          found := Some (ep_of_proc p)
      | Some _ | None -> ())
    t.procs;
  !found

let proc_memory t ep = match lookup_ep t ep with Lookup_ok p -> Some p.memory | _ -> None

(* ------------------------------------------------------------------ *)
(* Scheduling primitives                                               *)
(* ------------------------------------------------------------------ *)

(* Transition [proc] to Runnable: after [cost] microseconds either the
   pending kill fires (unwinding the fiber) or [go] resumes it. *)
let make_runnable t proc ~cost ~abort go =
  let event =
    Engine.schedule t.engine ~after:cost (fun () ->
        match proc.kill_pending with
        | Some status ->
            proc.kill_pending <- None;
            proc.state <- Running;
            abort (Sysif.Killed_exn status)
        | None ->
            proc.state <- Running;
            go ())
  in
  proc.state <- Runnable { event; abort }

(* Wake a process blocked in Recv_wait with result [v]. *)
let wake_receiver t proc ~cost v =
  match proc.state with
  | Recv_wait { resume; abort; _ } -> make_runnable t proc ~cost ~abort (fun () -> resume v)
  | Running | Runnable _ | Send_wait _ | Sleep_wait _ | Dead ->
      invalid_arg "wake_receiver: process is not receiving"

(* Does a Recv_wait filter accept a message/notification from [src]? *)
let filter_accepts filter (src : Endpoint.t) =
  match filter with Sysif.Any -> true | Sysif.From e -> Endpoint.equal e src

(* ------------------------------------------------------------------ *)
(* Process death                                                       *)
(* ------------------------------------------------------------------ *)

(* Deliver a notification; queues (with dedup) if the target is not
   receiving.  Never blocks. *)
let rec deliver_notify t ~src ~(dst : proc) kind =
  Metrics.incr t.ctr.c_notifications;
  match dst.state with
  | Recv_wait { filter; for_reply = false; _ } when filter_accepts filter src ->
      wake_receiver t dst ~cost:default_costs.notify (Ok (Sysif.Rx_notify { src; kind }))
  | Running | Runnable _ | Recv_wait _ | Send_wait _ | Sleep_wait _ ->
      let already =
        List.exists
          (fun (s, k) -> Endpoint.equal s src && Message.equal_notify_kind k kind)
          dst.pending_notifies
      in
      if not already then dst.pending_notifies <- dst.pending_notifies @ [ (src, kind) ]
  | Dead -> ()

(* Full cleanup when a process terminates for any reason.  This is the
   only path to [Dead]. *)
and finalize t proc status =
  if proc.state <> Dead then begin
    proc.state <- Dead;
    Metrics.incr t.ctr.c_exits;
    let ep = ep_of_proc proc in
    kemit t (Event.Exit { ep; name = proc.p_name; status });
    (* Cancel timers. *)
    (match proc.alarm with Some h -> Engine.cancel h | None -> ());
    proc.alarm <- None;
    (* Release hardware resources. *)
    let lines = Hashtbl.fold (fun line slot acc -> if slot = proc.slot then line :: acc else acc) t.irq_table [] in
    List.iter (fun line -> Hashtbl.remove t.irq_table line) lines;
    let dmas =
      Hashtbl.fold (fun h e acc -> if e.owner_slot = proc.slot then h :: acc else acc) t.iommu []
    in
    List.iter (fun h -> Hashtbl.remove t.iommu h) dmas;
    Hashtbl.reset proc.grants;
    (* Abort rendezvous partners: anyone sending to us or waiting for a
       message from us gets E_dead_src_dst — this is how a file server
       notices that its disk driver died mid-request (Sec. 6.2). *)
    Array.iter
      (fun other ->
        match other with
        | Some other when other.slot <> proc.slot -> begin
            match other.state with
            | Send_wait sw when sw.dst_slot = proc.slot -> begin
                match sw.completion with
                | C_send resume ->
                    make_runnable t other ~cost:default_costs.ipc ~abort:sw.sw_abort (fun () ->
                        resume (Error Errno.E_dead_src_dst))
                | C_sendrec resume ->
                    make_runnable t other ~cost:default_costs.ipc ~abort:sw.sw_abort (fun () ->
                        resume (Error Errno.E_dead_src_dst))
              end
            | Recv_wait { filter = Sysif.From e; _ } when Endpoint.equal e ep ->
                wake_receiver t other ~cost:default_costs.ipc (Error Errno.E_dead_src_dst)
            | Running | Runnable _ | Recv_wait _ | Send_wait _ | Sleep_wait _ | Dead -> ()
          end
        | Some _ | None -> ())
      t.procs;
    (* Tell the process manager (which forwards SIGCHLD to RS). *)
    Queue.push (ep, proc.p_name, status) t.exit_queue;
    (match proc_of_slot t Wellknown.pm.Endpoint.slot with
    | Some pm when pm.state <> Dead && pm.slot <> proc.slot ->
        deliver_notify t ~src:Wellknown.hardware ~dst:pm (Message.N_sig Signal.Sig_chld)
    | Some _ | None -> ())
  end

let status_of_exn = function
  | Sysif.Killed_exn status -> status
  | Sysif.Panic_exn msg -> Status.Panicked msg
  | Memory.Fault _ -> Status.Killed Signal.Sig_segv
  | e -> Status.Panicked (Printexc.to_string e)

(* Kill a process from kernel context. *)
let do_kill t proc status =
  Metrics.incr t.ctr.c_kills;
  match proc.state with
  | Dead -> ()
  | Running ->
      (* Only reachable for self-directed kills: the fiber is on the
         stack right now, so unwind at the next syscall boundary. *)
      proc.kill_pending <- Some status
  | Runnable { event; abort } ->
      Engine.cancel event;
      abort (Sysif.Killed_exn status)
  | Sleep_wait { event; abort } ->
      Engine.cancel event;
      abort (Sysif.Killed_exn status)
  | Recv_wait { abort; _ } -> abort (Sysif.Killed_exn status)
  | Send_wait { sw_abort; _ } -> sw_abort (Sysif.Killed_exn status)

(* ------------------------------------------------------------------ *)
(* Syscall implementation                                              *)
(* ------------------------------------------------------------------ *)

let ipc_allowed t proc (dst : proc) =
  ignore t;
  Privilege.allows proc.priv.Privilege.ipc_to dst.p_name || String_set.mem dst.p_name proc.peers

(* Attempt to deliver [msg] from [src_proc] to [dst]; returns true when
   the destination was receiving and the rendezvous completed.  Send,
   sendrec and asend all come here, so a destination waiting for its
   sendrec reply takes whichever of them its filter accepts first. *)
let try_deliver t ~(src_proc : proc) ~(dst : proc) msg =
  match dst.state with
  | Recv_wait { filter; _ } when filter_accepts filter (ep_of_proc src_proc) ->
      Metrics.incr t.ctr.c_messages;
      (* [add] on a persistent set allocates even when the element is
         already present; after the first exchange it always is, so
         guard with [mem] to keep the per-message path allocation-free. *)
      if not (String_set.mem src_proc.p_name dst.peers) then
        dst.peers <- String_set.add src_proc.p_name dst.peers;
      wake_receiver t dst ~cost:default_costs.ipc
        (Ok (Sysif.Rx_msg { src = ep_of_proc src_proc; body = msg }));
      true
  | Running | Runnable _ | Recv_wait _ | Send_wait _ | Sleep_wait _ | Dead -> false

(* Find a queued sender acceptable to [filter]; lazily drops stale
   queue entries (senders that died or were already serviced). *)
let pop_matching_sender t (receiver : proc) filter =
  let rec scan rejected =
    match Queue.take_opt receiver.senders with
    | None ->
        (* restore rejected entries in order *)
        List.iter (fun s -> Queue.push s receiver.senders) (List.rev rejected);
        None
    | Some slot -> (
        match proc_of_slot t slot with
        | Some sender -> (
            match sender.state with
            | Send_wait sw when sw.dst_slot = receiver.slot ->
                if filter_accepts filter (ep_of_proc sender) then begin
                  List.iter (fun s -> Queue.push s receiver.senders) (List.rev rejected);
                  Some (sender, sw)
                end
                else scan (slot :: rejected)
            | _ -> scan rejected (* stale entry *))
        | None -> scan rejected)
  in
  (* Preserve overall FIFO order for the entries we skip. *)
  let result = scan [] in
  result

let take_pending_notify (proc : proc) filter =
  let rec split acc = function
    | [] -> None
    | ((src, _kind) as hd) :: tl ->
        if filter_accepts filter src then begin
          proc.pending_notifies <- List.rev_append acc tl;
          Some hd
        end
        else split (hd :: acc) tl
  in
  split [] proc.pending_notifies

let take_async (proc : proc) filter =
  (* The async queue is small; scan in FIFO order for a match. *)
  let n = Queue.length proc.async_in in
  let rec scan i found =
    if i >= n then found
    else
      let ((src, _msg) as entry) = Queue.pop proc.async_in in
      match found with
      | None when filter_accepts filter src -> scan (i + 1) (Some entry)
      | _ ->
          Queue.push entry proc.async_in;
          scan (i + 1) found
  in
  scan 0 None

(* Complete a receive for [receiver], which is about to block (or is
   blocked): returns the rx if something is deliverable right now. *)
let try_complete_receive t (receiver : proc) filter =
  match take_pending_notify receiver filter with
  | Some (src, kind) -> Some (Sysif.Rx_notify { src; kind })
  | None -> (
      match pop_matching_sender t receiver filter with
      | Some (sender, sw) ->
          Metrics.incr t.ctr.c_messages;
          if not (String_set.mem sender.p_name receiver.peers) then
            receiver.peers <- String_set.add sender.p_name receiver.peers;
          let sender_ep = ep_of_proc sender in
          (match sw.completion with
          | C_send resume ->
              make_runnable t sender ~cost:default_costs.ipc ~abort:sw.sw_abort (fun () ->
                  resume (Ok ()))
          | C_sendrec resume ->
              (* Sender now waits for our reply. *)
              sender.state <-
                Recv_wait
                  {
                    filter = Sysif.From (ep_of_proc receiver);
                    for_reply = true;
                    resume;
                    abort = sw.sw_abort;
                  });
          Some (Sysif.Rx_msg { src = sender_ep; body = sw.msg })
      | None -> (
          match take_async receiver filter with
          | Some (src, msg) ->
              Metrics.incr t.ctr.c_async_messages;
              receiver.peers <-
                (match proc_of_slot t src.Endpoint.slot with
                | Some p when p.gen = src.Endpoint.gen -> String_set.add p.p_name receiver.peers
                | Some _ | None -> receiver.peers);
              Some (Sysif.Rx_msg { src; body = msg })
          | None -> None))

let do_safecopy t (caller : proc) ~dir ~owner ~grant_id ~grant_off ~local_addr ~len =
  match lookup_ep t owner with
  | Lookup_stale ->
      kemit t ~level:Trace.Warn
        (Event.Safecopy
           { caller = ep_of_proc caller; owner; bytes = len; errno = Some Errno.E_dead_src_dst });
      Error Errno.E_dead_src_dst
  | Lookup_bad -> Error Errno.E_bad_endpoint
  | Lookup_ok owner_proc -> (
      match Hashtbl.find_opt owner_proc.grants grant_id with
      | None -> Error Errno.E_no_perm
      | Some g -> (
          let caller_ep = ep_of_proc caller in
          if not (Endpoint.equal g.for_ caller_ep) then Error Errno.E_no_perm
          else if grant_off < 0 || len < 0 || grant_off > g.len - len then Error Errno.E_range
          else
            let access_ok =
              match (dir, g.access) with
              | `Read, (Sysif.Read_only | Sysif.Read_write) -> true
              | `Write, (Sysif.Write_only | Sysif.Read_write) -> true
              | `Read, Sysif.Write_only | `Write, Sysif.Read_only -> false
            in
            if not access_ok then Error Errno.E_no_perm
            else
              try
                Metrics.incr t.ctr.c_safecopies;
                Metrics.add t.ctr.c_safecopy_bytes len;
                (match dir with
                | `Read ->
                    Memory.copy ~src:owner_proc.memory ~src_addr:(g.base + grant_off)
                      ~dst:caller.memory ~dst_addr:local_addr ~len
                | `Write ->
                    Memory.copy ~src:caller.memory ~src_addr:local_addr ~dst:owner_proc.memory
                      ~dst_addr:(g.base + grant_off) ~len);
                Ok ()
              with Memory.Fault _ -> Error Errno.E_range))

(* Whether [proc]'s return after [cost] goes in place, the clock then
   advanced past it: when it would be the engine's next event anyway
   (DESIGN.md §6k).  Only a [Running] caller inlines: a fiber that
   [do_kill] unwinds keeps its blocked state, and the kernel carries on
   after the unwind.  The one policy for [ret_after] and [port_return]. *)
let[@inline] inline_ok t proc ~cost =
  proc.state == Running && Engine.advance_inline t.engine ~after:cost

(* A kill pending at an in-place return, which that return delivers. *)
let[@inline] take_kill proc =
  match proc.kill_pending with
  | Some _ as kill ->
      proc.kill_pending <- None;
      kill
  | None -> None

(* Resume a scheduled syscall's caller [k] with [v] after [cost]: in
   place when [inline_ok], otherwise through the queue.  The resumes
   stay in tail position so a long run of inlined returns does not grow
   the host stack. *)
let ret_after t proc k ~cost v =
  let open Effect.Deep in
  if inline_ok t proc ~cost then
    match take_kill proc with
    | Some status -> discontinue k (Sysif.Killed_exn status)
    | None -> continue k v
  else
    let abort e = discontinue k e in
    make_runnable t proc ~cost ~abort (fun () -> continue k v)

(* The common case: a plain syscall's cost. *)
let ret t proc k v = ret_after t proc k ~cost:default_costs.syscall v

(* Privilege gate for kernel calls. *)
let kcall_denied proc op = not (Sysif.kcall_allowed proc.kcall_mask op)

(* A device model's exception on its way out of a process's fiber, to
   be raised again outside it (DESIGN.md §6k). *)
exception Device_exn of exn

(* [ret_after] for a port access, from inside [proc]'s fiber: in place,
   or else blocked in a [Yield] of the same cost, whose own [inline_ok]
   test then fails again as nothing has run in between. *)
let port_return t proc ~cost =
  if inline_ok t proc ~cost then
    match take_kill proc with Some status -> raise (Sysif.Killed_exn status) | None -> ()
  else Effect.perform (Sysif.Sys (Sysif.Yield cost))

(* One port access by [proc]: a write when [write], else a read. *)
let port_io t proc ~write port value =
  if not (Sysif.devio_allowed proc.kcall_mask && Privilege.allows_port proc.priv port) then begin
    port_return t proc ~cost:default_costs.syscall;
    raise Sysif.Port_refused
  end;
  Metrics.incr t.ctr.c_devios;
  match if write then (t.bus_write port value; 0) else t.bus_read port with
  | v ->
      port_return t proc ~cost:default_costs.devio;
      v
  | exception Sysif.Port_refused ->
      port_return t proc ~cost:default_costs.devio;
      raise Sysif.Port_refused
  | exception e -> raise (Device_exn e)

let ports t proc =
  {
    Sysif.port_in = (fun port -> port_io t proc ~write:false port 0);
    port_out = (fun port value -> ignore (port_io t proc ~write:true port value));
  }

(* Start a fiber for [proc] running [body], scheduled [delay] from now. *)
let rec start_fiber t proc ~delay body =
  let open Effect.Deep in
  let rec handler : (unit, unit) Effect.Deep.handler =
    {
      retc = (fun () -> finalize t proc (Status.Exited 0));
      exnc = (function Device_exn e -> raise e | e -> finalize t proc (status_of_exn e));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sysif.Sys op -> Some (fun (k : (a, _) continuation) -> handle_syscall t proc op k)
          | _ -> None);
    }
  and run () = match_with body () handler in
  let abort e =
    (* The fiber never started; there is no continuation to unwind. *)
    finalize t proc (status_of_exn e)
  in
  make_runnable t proc ~cost:delay ~abort run

(* The kernel half of every syscall.  [k] resumes the calling fiber. *)
and handle_syscall : type a. t -> proc -> a Sysif.syscall -> (a, unit) Effect.Deep.continuation -> unit =
 fun t proc op k ->
  let open Effect.Deep in
  (* Immediate (free) operations resume synchronously with [continue];
     scheduled ones through [ret]/[ret_after].  No local closures: this
     runs for every syscall. *)
  match op with
  | Sysif.Now -> continue k (Engine.now t.engine)
  | Sysif.Self -> continue k (ep_of_proc proc)
  | Sysif.My_memory -> continue k proc.memory
  | Sysif.My_ports -> continue k (ports t proc)
  | Sysif.My_args -> continue k proc.p_args
  | Sysif.My_name -> continue k proc.p_name
  | Sysif.Random n -> continue k (Rng.int t.rng n)
  | Sysif.Obs_emit (level, subsystem, payload) ->
      Trace.emit_event t.trace ~now:(Engine.now t.engine) ~level subsystem payload;
      continue k ()
  | Sysif.Metric_add (name, n) ->
      Metrics.add_named t.metrics name n;
      continue k ()
  | Sysif.Metric_counter name -> continue k (Metrics.counter t.metrics name)
  | Sysif.Metric_gauge name -> continue k (Metrics.gauge t.metrics name)
  | Sysif.Yield cost -> ret_after t proc k ~cost:(max 0 cost) ()
  | Sysif.Sleep d ->
      let abort e = discontinue k e in
      let event = Engine.schedule t.engine ~after:(max 0 d) (fun () ->
          match proc.kill_pending with
          | Some status ->
              proc.kill_pending <- None;
              proc.state <- Running;
              abort (Sysif.Killed_exn status)
          | None ->
              proc.state <- Running;
              continue k ())
      in
      proc.state <- Sleep_wait { event; abort }
  | Sysif.Exit status -> discontinue k (Sysif.Killed_exn status)
  | Sysif.Send (dst, msg) -> begin
      match lookup_ep t dst with
      | Lookup_stale ->
          kemit t ~level:Trace.Warn
            (Event.Ipc
               { kind = Event.Send; src = ep_of_proc proc; dst; errno = Some Errno.E_dead_src_dst });
          ret t proc k (Error Errno.E_dead_src_dst)
      | Lookup_bad -> ret t proc k (Error Errno.E_bad_endpoint)
      | Lookup_ok dst_proc ->
          if dst_proc.slot = proc.slot then ret t proc k (Error Errno.E_inval)
          else if not (ipc_allowed t proc dst_proc) then ret t proc k (Error Errno.E_no_perm)
          else if try_deliver t ~src_proc:proc ~dst:dst_proc msg then
            ret_after t proc k ~cost:default_costs.ipc (Ok ())
          else begin
            Queue.push proc.slot dst_proc.senders;
            proc.state <-
              Send_wait
                {
                  dst_slot = dst_proc.slot;
                  msg;
                  completion = C_send (fun r -> continue k r);
                  sw_abort = (fun e -> discontinue k e);
                }
          end
    end
  | Sysif.Sendrec (dst, msg) -> begin
      match lookup_ep t dst with
      | Lookup_stale ->
          kemit t ~level:Trace.Warn
            (Event.Ipc
               { kind = Event.Sendrec; src = ep_of_proc proc; dst; errno = Some Errno.E_dead_src_dst });
          ret t proc k (Error Errno.E_dead_src_dst)
      | Lookup_bad -> ret t proc k (Error Errno.E_bad_endpoint)
      | Lookup_ok dst_proc ->
          if dst_proc.slot = proc.slot then ret t proc k (Error Errno.E_inval)
          else if not (ipc_allowed t proc dst_proc) then ret t proc k (Error Errno.E_no_perm)
          else if try_deliver t ~src_proc:proc ~dst:dst_proc msg then
            (* Message handed over; now wait for the reply. *)
            proc.state <-
              Recv_wait
                {
                  filter = Sysif.From (ep_of_proc dst_proc);
                  for_reply = true;
                  resume = (fun r -> continue k r);
                  abort = (fun e -> discontinue k e);
                }
          else begin
            Queue.push proc.slot dst_proc.senders;
            proc.state <-
              Send_wait
                {
                  dst_slot = dst_proc.slot;
                  msg;
                  completion = C_sendrec (fun r -> continue k r);
                  sw_abort = (fun e -> discontinue k e);
                }
          end
    end
  | Sysif.Asend (dst, msg) -> begin
      match lookup_ep t dst with
      | Lookup_stale ->
          kemit t ~level:Trace.Warn
            (Event.Ipc
               { kind = Event.Async_send; src = ep_of_proc proc; dst; errno = Some Errno.E_dead_src_dst });
          ret t proc k (Error Errno.E_dead_src_dst)
      | Lookup_bad -> ret t proc k (Error Errno.E_bad_endpoint)
      | Lookup_ok dst_proc ->
          if not (ipc_allowed t proc dst_proc) then ret t proc k (Error Errno.E_no_perm)
          else if try_deliver t ~src_proc:proc ~dst:dst_proc msg then
            ret_after t proc k ~cost:default_costs.ipc (Ok ())
          else begin
            Metrics.incr t.ctr.c_async_messages;
            Queue.push (ep_of_proc proc, msg) dst_proc.async_in;
            ret t proc k (Ok ())
          end
    end
  | Sysif.Notify (dst, kind) -> begin
      match lookup_ep t dst with
      | Lookup_stale -> ret t proc k (Error Errno.E_dead_src_dst)
      | Lookup_bad -> ret t proc k (Error Errno.E_bad_endpoint)
      | Lookup_ok dst_proc ->
          if not (ipc_allowed t proc dst_proc) then ret t proc k (Error Errno.E_no_perm)
          else begin
            deliver_notify t ~src:(ep_of_proc proc) ~dst:dst_proc kind;
            ret_after t proc k ~cost:default_costs.notify (Ok ())
          end
    end
  | Sysif.Receive filter -> begin
      (* Fail fast when waiting on a specific endpoint that is gone. *)
      let stale_source =
        match filter with
        | Sysif.Any -> false
        | Sysif.From e -> (
            (* The hardware pseudo-endpoint is always valid. *)
            if Endpoint.equal e Wellknown.hardware then false
            else match lookup_ep t e with Lookup_ok _ -> false | Lookup_stale | Lookup_bad -> true)
      in
      match try_complete_receive t proc filter with
      | Some rx -> ret_after t proc k ~cost:default_costs.ipc (Ok rx)
      | None ->
          if stale_source then ret t proc k (Error Errno.E_dead_src_dst)
          else
            proc.state <-
              Recv_wait
                {
                  filter;
                  for_reply = false;
                  resume = (fun r -> continue k r);
                  abort = (fun e -> discontinue k e);
                }
    end
  | Sysif.Safecopy { dir; owner; grant; grant_off; local_addr; len } ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else if len < 0 then ret_after t proc k ~cost:default_costs.copy_base (Error Errno.E_range)
      else
        let cost = default_costs.copy_base + (len / default_costs.copy_bytes_per_us) in
        ret_after t proc k ~cost
          (do_safecopy t proc ~dir ~owner ~grant_id:grant ~grant_off ~local_addr ~len)
  | Sysif.Grant_create { for_; base; len; access } ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else if base < 0 || len < 0 || base > Memory.size proc.memory - len then
        ret t proc k (Error Errno.E_range)
      else begin
        let id = proc.next_grant in
        proc.next_grant <- proc.next_grant + 1;
        Hashtbl.replace proc.grants id { for_; base; len; access };
        ret t proc k (Ok id)
      end
  | Sysif.Grant_revoke id ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else begin
        Hashtbl.remove proc.grants id;
        ret t proc k (Ok ())
      end
  | Sysif.Irq_register line ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else if not (Privilege.allows_irq proc.priv line) then ret t proc k (Error Errno.E_no_perm)
      else begin
        Hashtbl.replace t.irq_table line proc.slot;
        ret t proc k (Ok ())
      end
  | Sysif.Alarm delay ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else begin
        (match proc.alarm with Some h -> Engine.cancel h | None -> ());
        proc.alarm <- None;
        if delay > 0 then
          proc.alarm <-
            Some
              (Engine.schedule t.engine ~after:delay (fun () ->
                   proc.alarm <- None;
                   if proc.state <> Dead then
                     deliver_notify t ~src:Wellknown.hardware ~dst:proc Message.N_alarm));
        ret t proc k (Ok ())
      end
  | Sysif.Iommu_map grant_id ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else begin
        match Hashtbl.find_opt proc.grants grant_id with
        | None -> ret t proc k (Error Errno.E_no_perm)
        | Some g ->
            if not (Endpoint.equal g.for_ Wellknown.hardware) then ret t proc k (Error Errno.E_no_perm)
            else begin
              let handle = t.next_dma_handle in
              t.next_dma_handle <- t.next_dma_handle + 1;
              Hashtbl.replace t.iommu handle
                { owner_slot = proc.slot; owner_gen = proc.gen; grant_id };
              ret t proc k (Ok handle)
            end
      end
  | Sysif.Iommu_unmap handle ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else begin
        (match Hashtbl.find_opt t.iommu handle with
        | Some e when e.owner_slot = proc.slot -> Hashtbl.remove t.iommu handle
        | Some _ | None -> ());
        ret t proc k (Ok ())
      end
  | Sysif.Proc_create { name; program; args; priv; mem_kb } ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else
        ret_after t proc k ~cost:default_costs.spawn
          (spawn_dynamic t ~name ~program ~args ~priv ~mem_kb)
  | Sysif.Proc_kill (target, signal) ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else begin
        match lookup_ep t target with
        | Lookup_stale -> ret t proc k (Error Errno.E_dead_src_dst)
        | Lookup_bad -> ret t proc k (Error Errno.E_bad_endpoint)
        | Lookup_ok target_proc -> (
            match signal with
            | Signal.Sig_kill | Signal.Sig_segv | Signal.Sig_ill ->
                do_kill t target_proc (Status.Killed signal);
                ret t proc k (Ok ())
            | Signal.Sig_term | Signal.Sig_chld ->
                deliver_notify t ~src:(ep_of_proc proc) ~dst:target_proc (Message.N_sig signal);
                ret t proc k (Ok ()))
      end
  | Sysif.Reap_exit ->
      if kcall_denied proc op then ret t proc k None else ret t proc k (Queue.take_opt t.exit_queue)
  | Sysif.Privctl (target, priv) ->
      if kcall_denied proc op then ret t proc k (Error Errno.E_no_perm)
      else begin
        match lookup_ep t target with
        | Lookup_stale -> ret t proc k (Error Errno.E_dead_src_dst)
        | Lookup_bad -> ret t proc k (Error Errno.E_bad_endpoint)
        | Lookup_ok target_proc ->
            target_proc.priv <- priv;
            target_proc.kcall_mask <- Sysif.kcall_mask priv.Privilege.kcalls;
            ret t proc k (Ok ())
      end

(* ------------------------------------------------------------------ *)
(* Process creation                                                    *)
(* ------------------------------------------------------------------ *)

and alloc_slot t =
  let n = Array.length t.procs in
  let rec scan i =
    if i >= n then None
    else
      match t.procs.(i) with
      | None -> Some i
      | Some p when p.state = Dead -> Some i
      | Some _ -> scan (i + 1)
  in
  match scan Wellknown.first_dynamic_slot with
  | Some i -> i
  | None ->
      let bigger = Array.make (n * 2) None in
      Array.blit t.procs 0 bigger 0 n;
      t.procs <- bigger;
      let gens = Array.make (n * 2) 0 in
      Array.blit t.slot_gen 0 gens 0 n;
      t.slot_gen <- gens;
      n

and make_proc t ~slot ~name ~args ~priv ~mem_kb =
  let gen = t.slot_gen.(slot) + 1 in
  t.slot_gen.(slot) <- gen;
  let proc =
    {
      slot;
      gen;
      p_name = name;
      p_args = args;
      priv;
      kcall_mask = Sysif.kcall_mask priv.Privilege.kcalls;
      memory = Memory.create ~size:(mem_kb * 1024);
      state = Running (* immediately replaced by make_runnable *);
      kill_pending = None;
      pending_notifies = [];
      async_in = Queue.create ();
      senders = Queue.create ();
      grants = Hashtbl.create 8;
      next_grant = 1;
      alarm = None;
      peers = String_set.empty;
    }
  in
  t.procs.(slot) <- Some proc;
  proc

and spawn_dynamic :
    t ->
    name:string ->
    program:string ->
    args:string list ->
    priv:Privilege.t ->
    mem_kb:int ->
    (Endpoint.t, Errno.t) result =
 fun t ~name ~program ~args ~priv ~mem_kb ->
  match Hashtbl.find_opt t.programs program with
  | None -> Error Errno.E_noent
  | Some main ->
      Metrics.incr t.ctr.c_spawns;
      let slot = alloc_slot t in
      let proc = make_proc t ~slot ~name ~args ~priv ~mem_kb in
      kemit t ~level:Trace.Debug (Event.Spawn { ep = ep_of_proc proc; name; program });
      (* The creating kernel call itself costs [spawn]; the child's
         first instruction runs strictly after that work finished, so
         the creator (and RS's endpoint publication) wins the race. *)
      start_fiber t proc ~delay:(default_costs.spawn + 100) main;
      Ok (ep_of_proc proc)

let spawn_wellknown t ~ep ~name ~priv ?(mem_kb = 1024) body =
  let slot = ep.Endpoint.slot in
  if slot < 0 || slot >= Array.length t.procs then
    invalid_arg "spawn_wellknown: slot out of range";
  (match proc_of_slot t slot with
  | Some p when p.state <> Dead -> invalid_arg "spawn_wellknown: slot in use"
  | Some _ | None -> ());
  t.slot_gen.(slot) <- ep.Endpoint.gen - 1;
  let proc = make_proc t ~slot ~name ~args:[] ~priv ~mem_kb in
  Metrics.incr t.ctr.c_spawns;
  kemit t ~level:Trace.Debug (Event.Spawn { ep = ep_of_proc proc; name; program = "<boot>" });
  start_fiber t proc ~delay:0 body

let kill t ep status =
  match lookup_ep t ep with
  | Lookup_stale -> Error Errno.E_dead_src_dst
  | Lookup_bad -> Error Errno.E_bad_endpoint
  | Lookup_ok proc ->
      do_kill t proc status;
      Ok ()

let deliver_signal t ep signal =
  match lookup_ep t ep with
  | Lookup_stale -> Error Errno.E_dead_src_dst
  | Lookup_bad -> Error Errno.E_bad_endpoint
  | Lookup_ok proc ->
      deliver_notify t ~src:Wellknown.hardware ~dst:proc (Message.N_sig signal);
      Ok ()

(* ------------------------------------------------------------------ *)
(* Hardware-facing interface                                           *)
(* ------------------------------------------------------------------ *)

let raise_irq t line =
  Metrics.incr t.ctr.c_irqs;
  (* An interrupt with no live handler is lost — exactly the window a
     crashed driver leaves open, so it is worth an event. *)
  let dropped () =
    Metrics.incr t.ctr.c_irqs_dropped;
    kemit t ~level:Trace.Warn (Event.Irq { line; delivered = false })
  in
  match Hashtbl.find_opt t.irq_table line with
  | None -> dropped ()
  | Some slot -> (
      match proc_of_slot t slot with
      | Some proc when proc.state <> Dead ->
          deliver_notify t ~src:Wellknown.hardware ~dst:proc (Message.N_irq line)
      | Some _ | None -> dropped ())

let dma t ~handle ~off ~op =
  match Hashtbl.find_opt t.iommu handle with
  | None -> Error Errno.E_no_perm
  | Some entry -> (
      match proc_of_slot t entry.owner_slot with
      | Some owner when owner.gen = entry.owner_gen && owner.state <> Dead -> (
          match Hashtbl.find_opt owner.grants entry.grant_id with
          | None -> Error Errno.E_no_perm
          | Some g -> (
              let len = match op with `Read n | `Fill (n, _) -> n in
              if off < 0 || len < 0 || off > g.len - len then Error Errno.E_range
              else
                try
                  match op with
                  | `Read n -> Ok (Memory.read owner.memory ~addr:(g.base + off) ~len:n)
                  | `Fill (n, f) ->
                      Memory.fill owner.memory ~addr:(g.base + off) ~len:n f;
                      Ok Bytes.empty
                with Memory.Fault _ -> Error Errno.E_range))
      | Some _ | None -> Error Errno.E_no_perm)
