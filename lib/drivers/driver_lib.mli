(** Shared driver library — the main loop every driver links against.

    This is where the paper's reengineering claim lives (Sec. 7.3):
    making a driver recoverable required "exactly 5 lines of code in
    the shared driver library to handle the new request types", namely
    replying to heartbeat requests and exiting cleanly on SIGTERM.
    Those lines are marked with [@recovery] comments, which the sclc
    line counter uses to reproduce Fig. 9.

    Two loops are provided: the block/character device loop (MINIX
    [Dev_*] protocol, synchronous replies or deferred completion) and
    the network driver loop (MINIX [DL_*] protocol, asynchronous
    replies), which also owns everything the two Ethernet drivers
    share.  The driver-VM side of a driver lives in {!Image}. *)

module Errno := Resilix_proto.Errno
module Endpoint := Resilix_proto.Endpoint

(** Outcome of a device request handler. *)
type outcome =
  | Reply of (int, Errno.t) result  (** reply now *)
  | No_reply  (** the driver will {!reply} later (interrupt-driven completion) *)

(** Handlers for a block or character driver.  Any handler left as the
    default replies [E_inval]. *)
type dev_handlers = {
  dh_open : minor:int -> (int, Errno.t) result;
  dh_close : minor:int -> (int, Errno.t) result;
  dh_read : src:Endpoint.t -> minor:int -> pos:int -> grant:int -> len:int -> outcome;
  dh_write : src:Endpoint.t -> minor:int -> pos:int -> grant:int -> len:int -> outcome;
  dh_ioctl : src:Endpoint.t -> minor:int -> op:string -> arg:int -> outcome;
  dh_irq : line:int -> unit;
  dh_alarm : unit -> unit;
}

val default_dev_handlers : dev_handlers
(** Everything rejected / ignored. *)

val reply : Endpoint.t -> (int, Errno.t) result -> unit
(** Send a deferred [Dev_reply] to a caller whose request returned
    [No_reply]. *)

val run_dev : dev_handlers -> 'a
(** The block/character driver main loop.  Never returns (the process
    exits via SIGTERM or dies). *)

(** {1 Network drivers}

    Both Ethernet drivers move frames through the same two buffers of
    their address space and load images exporting the same six
    programs: [reset], [cmdstat] (bit 0x10 = reset in progress),
    [setup] (MAC returned in r5/r6), [tx] (r1 = length), [isr]
    (pending bits: 0x1 rx, 0x4 tx done, 0x8 error) and [txack]. *)

val nic_tx_buf : int
val nic_rx_buf : int
val nic_buf_size : int
val max_frame : int

val run_nic :
  Image.vm ->
  tx_r2:int ->
  setup_r1:int ->
  setup_r2:int ->
  rx:([ `Irq | `Posted | `Reset ] -> ((unit -> int) -> bool) -> unit) ->
  'a
(** The network driver main loop (MINIX [DL_*] protocol, asynchronous
    replies).  It owns the INET endpoint, the posted receive slot, the
    transmit queue, bring-up on [Dl_conf] (reset, poll, [setup] with
    r1/r2 = [setup_r1]/[setup_r2] and r3 = promiscuous) and the
    interrupt dispatch.  [tx] runs with r2 = [tx_r2] (a buffer address
    or a DMA handle).

    It keeps no frames: the driver decides where a received frame
    waits, in [rx event deliver].  [event] is [`Irq] when [isr]
    reported received frames, [`Posted] when INET posted a receive
    ([Dl_readv]) and [`Reset] right after [Dl_conf]'s [reset].
    [deliver frame_len] copies the frame at {!nic_rx_buf} to INET's
    posted receive and returns [true], or returns [false] at once when
    no receive is posted; it calls [frame_len] (the frame's length in
    bytes) only in the first case.  A posted receive takes one frame.
    Never returns. *)
