module Api = Resilix_kernel.Sysif.Api
module Sysif = Resilix_kernel.Sysif
module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Message = Resilix_proto.Message
module Signal = Resilix_proto.Signal
module Status = Resilix_proto.Status
module Metrics = Resilix_obs.Metrics

type outcome = Reply of (int, Errno.t) result | No_reply

type dev_handlers = {
  dh_open : minor:int -> (int, Errno.t) result;
  dh_close : minor:int -> (int, Errno.t) result;
  dh_read : src:Endpoint.t -> minor:int -> pos:int -> grant:int -> len:int -> outcome;
  dh_write : src:Endpoint.t -> minor:int -> pos:int -> grant:int -> len:int -> outcome;
  dh_ioctl : src:Endpoint.t -> minor:int -> op:string -> arg:int -> outcome;
  dh_irq : line:int -> unit;
  dh_alarm : unit -> unit;
}

let default_dev_handlers =
  {
    dh_open = (fun ~minor:_ -> Ok 0);
    dh_close = (fun ~minor:_ -> Ok 0);
    dh_read = (fun ~src:_ ~minor:_ ~pos:_ ~grant:_ ~len:_ -> Reply (Error Errno.E_inval));
    dh_write = (fun ~src:_ ~minor:_ ~pos:_ ~grant:_ ~len:_ -> Reply (Error Errno.E_inval));
    dh_ioctl = (fun ~src:_ ~minor:_ ~op:_ ~arg:_ -> Reply (Error Errno.E_inval));
    dh_irq = (fun ~line:_ -> ());
    dh_alarm = (fun () -> ());
  }

let reply src result = ignore (Api.send src (Message.Dev_reply { result }))

(* Handle the notifications every driver must understand.  The two
   recovery cases are the paper's "exactly 5 lines of code in the
   shared driver library" (Sec. 7.3). *)
let handle_common_notify ~src ~kind ~on_irq ~on_alarm =
  match kind with
  | Message.N_heartbeat_request -> ignore (Api.notify src Message.N_heartbeat_reply) (*@recovery*)
  | Message.N_health_probe -> ignore (Api.notify src Message.N_health_reply) (*@recovery*)
  | Message.N_sig Signal.Sig_term -> Api.exit (Status.Exited 0) (*@recovery*)
  | Message.N_irq line -> on_irq ~line
  | Message.N_alarm -> on_alarm ()
  | Message.N_sig _ | Message.N_heartbeat_reply | Message.N_health_reply | Message.N_ds_update ->
      ()

(* The receive loop both protocols share: notifications go to
   [handle_common_notify], requests to [handle]. *)
let serve ~on_irq ~on_alarm handle =
  (* One requests counter per driver, resolved to a handle once so the
     hot loop neither formats the name nor looks it up per message. *)
  let c_requests = Api.metric_counter (Printf.sprintf "driver.%s.requests" (Api.name ())) in
  let rec loop () =
    (match Api.receive Sysif.Any with
    | Error _ -> ()
    | Ok (Sysif.Rx_notify { src; kind }) -> handle_common_notify ~src ~kind ~on_irq ~on_alarm
    | Ok (Sysif.Rx_msg { src; body }) ->
        Metrics.incr c_requests;
        handle src body);
    loop ()
  in
  loop ()

let run_dev handlers =
  let deferred src = function Reply r -> reply src r | No_reply -> () in
  serve ~on_irq:handlers.dh_irq ~on_alarm:handlers.dh_alarm (fun src -> function
    | Message.Dev_open { minor } -> reply src (handlers.dh_open ~minor)
    | Message.Dev_close { minor } -> reply src (handlers.dh_close ~minor)
    | Message.Dev_read { minor; pos; grant; len } ->
        deferred src (handlers.dh_read ~src ~minor ~pos ~grant ~len)
    | Message.Dev_write { minor; pos; grant; len } ->
        deferred src (handlers.dh_write ~src ~minor ~pos ~grant ~len)
    | Message.Dev_ioctl { minor; op; arg } -> deferred src (handlers.dh_ioctl ~src ~minor ~op ~arg)
    | _ -> reply src (Error Errno.E_inval))

let nic_tx_buf = 0x4000
let nic_rx_buf = 0x4800
let nic_buf_size = 2048
let max_frame = 1514

(* Interrupt bits both NIC images' [isr] programs report. *)
let isr_rx = 0x1
let isr_tx = 0x4
let isr_err = 0x8

let task_reply dst ~sent ~received ~read_len =
  ignore (Api.asend dst (Message.Dl_task_reply { flags = { sent; received }; read_len }))

let run_nic vm ~tx_r2 ~setup_r1 ~setup_r2 ~rx =
  let p_reset = Image.program vm "reset"
  and p_cmdstat = Image.program vm "cmdstat"
  and p_setup = Image.program vm "setup"
  and p_tx = Image.program vm "tx"
  and p_isr = Image.program vm "isr"
  and p_txack = Image.program vm "txack" in
  (* Mutable driver state; all lost (by design) on a crash. *)
  let inet = ref None in
  let rx_slot = ref None (* (src, grant, maxlen) posted by INET *) in
  let tx_busy = ref false in
  let tx_queue = Queue.create () in
  (* Copy the frame at [nic_rx_buf] to INET's posted receive, if there
     is one; [frame_len] is asked only then. *)
  let deliver frame_len =
    match !rx_slot with
    | None -> false
    | Some (src, grant, maxlen) ->
        rx_slot := None;
        let len = min (frame_len ()) maxlen in
        (* An error means the network server restarted underneath us;
           the frame is dropped. *)
        if Result.is_ok (Api.safecopy_to ~owner:src ~grant ~grant_off:0 ~local_addr:nic_rx_buf ~len)
        then task_reply src ~sent:false ~received:true ~read_len:len;
        true
  in
  let start_tx (src, grant, len) =
    match Api.safecopy_from ~owner:src ~grant ~grant_off:0 ~local_addr:nic_tx_buf ~len with
    | Error _ -> () (* requester is gone *)
    | Ok () ->
        tx_busy := true;
        ignore (Image.exec vm p_tx ~r1:len ~r2:tx_r2)
  in
  let conf (mode : Message.dl_mode) =
    ignore (Image.exec vm p_reset);
    rx `Reset deliver;
    (* The chip takes real time to come out of reset. *)
    Image.wait_ready vm p_cmdstat ~busy:0x10;
    ignore (Image.exec vm p_setup ~r1:setup_r1 ~r2:setup_r2 ~r3:(if mode.promisc then 1 else 0));
    Image.reg vm 5 lor (Image.reg vm 6 lsl 32)
  in
  let on_irq ~line:_ =
    let bits = Image.exec vm p_isr in
    if bits land isr_err <> 0 then Image.fail vm "device reported an error";
    if bits land isr_rx <> 0 then rx `Irq deliver;
    if bits land isr_tx <> 0 then begin
      ignore (Image.exec vm p_txack);
      tx_busy := false;
      Option.iter (fun dst -> task_reply dst ~sent:true ~received:false ~read_len:0) !inet;
      Option.iter start_tx (Queue.take_opt tx_queue)
    end
  in
  serve ~on_irq ~on_alarm:ignore (fun src -> function
    | Message.Dl_conf { mode } ->
        inet := Some src;
        let mac = conf mode in
        ignore (Api.asend src (Message.Dl_conf_reply { mac; result = Ok () }))
    | Message.Dl_writev { grant; len } ->
        if len <= 0 || len > max_frame then
          Image.fail vm "network server sent a bogus frame length"
        else if !tx_busy then Queue.push (src, grant, len) tx_queue
        else start_tx (src, grant, len)
    | Message.Dl_readv { grant; len } ->
        rx_slot := Some (src, grant, len);
        rx `Posted deliver
    | _ -> ignore (Api.send src (Message.Err_reply Errno.E_inval)))
