(** All IPC message types, in one shared definition (like MINIX's
    global message headers).  The kernel never interprets these; each
    protocol section documents who speaks it.

    Bulk data never travels inside messages: requests carry a grant id
    naming a memory capability in the sender's grant table, and the
    receiver moves the data with the [safecopy] kernel call (Sec. 4). *)

type dl_mode = { promisc : bool; broadcast : bool } [@@deriving show, eq]
(** Receive-mode configuration for a network driver. *)

type dl_flags = { sent : bool; received : bool } [@@deriving show, eq]
(** Completion flags in a network driver's task reply. *)

type ds_value = V_endpoint of Endpoint.t | V_str of string | V_int of int
[@@deriving show, eq]
(** Values stored under stable names in the data store. *)

type open_flags = { wr : bool; create : bool; trunc : bool } [@@deriving show, eq]
(** VFS open flags. *)

type sock_proto = Tcp | Udp [@@deriving show, eq]
(** Transport protocols offered by the network server. *)

type t =
  (* ------- generic replies ------- *)
  | Ok_reply  (** generic success acknowledgement *)
  | Err_reply of Errno.t  (** generic failure acknowledgement *)
  (* ------- block/character device protocol (server -> driver) ------- *)
  | Dev_open of { minor : int }
  | Dev_close of { minor : int }
  | Dev_read of { minor : int; pos : int; grant : int; len : int }
      (** read [len] bytes at byte offset [pos] into the caller's granted buffer *)
  | Dev_write of { minor : int; pos : int; grant : int; len : int }
  | Dev_ioctl of { minor : int; op : string; arg : int }
      (** device-specific control, e.g. ["set_rate"], ["burn_start"] *)
  | Dev_reply of { result : (int, Errno.t) result }
      (** driver's answer: bytes transferred (or ioctl result) *)
  (* ------- network driver protocol (INET -> driver), MINIX DL_* ------- *)
  | Dl_conf of { mode : dl_mode }  (** (re)initialize; reply is [Dl_conf_reply] *)
  | Dl_conf_reply of { mac : int; result : (unit, Errno.t) result }
  | Dl_writev of { grant : int; len : int }  (** transmit one frame from granted buffer *)
  | Dl_readv of { grant : int; len : int }  (** post a receive buffer of size [len] *)
  | Dl_task_reply of { flags : dl_flags; read_len : int }
      (** asynchronous completion: a frame was sent and/or received *)
  (* ------- reincarnation server protocol ------- *)
  | Rs_up of Spec.t  (** start a service (the `service up` command) *)
  | Rs_down of { name : string }  (** stop and forget a service *)
  | Rs_restart of { name : string }  (** user-requested restart (defect class 3) *)
  | Rs_refresh of { name : string; program : string option }
      (** dynamic update (defect class 6); [program] optionally names a new binary *)
  | Rs_complain of { name : string; reason : string }
      (** authorized server reports a malfunctioning component (class 5) *)
  | Rs_service_restart of { name : string }
      (** sent by a running policy script: actually perform the restart *)
  | Rs_reboot
      (** last-resort full restart of every guarded service ("the
          policy script may reboot the entire system", Sec. 5.2) *)
  | Rs_lookup of { name : string }  (** query a service's current endpoint/pid *)
  | Rs_lookup_reply of { result : (Endpoint.t * int, Errno.t) result }
  | Rs_reply of { result : (unit, Errno.t) result }
  (* ------- data store protocol ------- *)
  | Ds_publish of { key : string; value : ds_value }
  | Ds_retrieve of { key : string }
  | Ds_retrieve_reply of { result : (ds_value, Errno.t) result }
  | Ds_delete of { key : string }
  | Ds_subscribe of { pattern : string }
      (** glob-lite pattern: ["eth.*"] matches every Ethernet driver *)
  | Ds_check  (** fetch the next pending update after an [N_ds_update] notification *)
  | Ds_check_reply of { result : ((string * ds_value) option, Errno.t) result }
  | Ds_degraded_list
      (** query the components currently published as degraded
          (["degraded.*"] records with a non-zero value) *)
  | Ds_degraded_list_reply of { result : (string list, Errno.t) result }
  | Ds_snapshot_store of { key : string; data : string }
      (** private state backup, authenticated by stable name (Sec. 5.3) *)
  | Ds_snapshot_fetch of { key : string }
  | Ds_snapshot_reply of { result : (string, Errno.t) result }
  | Ds_reply of { result : (unit, Errno.t) result }
  (* ------- process manager protocol ------- *)
  | Pm_spawn of { name : string; program : string; args : string list; priv : Privilege.t; mem_kb : int }
  | Pm_spawn_reply of { result : (Endpoint.t * int, Errno.t) result }  (** endpoint, pid *)
  | Pm_kill of { pid : int; signal : Signal.t }
  | Pm_waitpid of { pid : int }  (** [-1] = any zombie child (non-blocking) *)
  | Pm_wait_reply of { result : (int * string * Status.exit_status, Errno.t) result }
      (** pid, process name, exit status *)
  | Pm_pidof of { name : string }
  | Pm_pidof_reply of { result : (int, Errno.t) result }
  | Pm_reply of { result : (unit, Errno.t) result }
  (* ------- VFS protocol (application -> VFS) ------- *)
  | Vfs_open of { path : string; flags : open_flags }
  | Vfs_open_reply of { result : (int, Errno.t) result }
  | Vfs_read of { fd : int; grant : int; len : int }
  | Vfs_write of { fd : int; grant : int; len : int }
  | Vfs_io_reply of { result : (int, Errno.t) result }  (** bytes moved *)
  | Vfs_lseek of { fd : int; pos : int }
  | Vfs_close of { fd : int }
  | Vfs_ioctl of { fd : int; op : string; arg : int }
  | Vfs_reply of { result : (unit, Errno.t) result }
  (* ------- VFS <-> file server (MFS) protocol ------- *)
  | Fs_lookup of { path : string; create : bool }
  | Fs_lookup_reply of { result : (int * int, Errno.t) result }  (** inode number, size *)
  | Fs_readwrite of { ino : int; write : bool; pos : int; grant : int; len : int }
  | Fs_io_reply of { result : (int, Errno.t) result }
  | Fs_truncate of { ino : int }
  | Fs_new_driver of { major : int; endpoint : Endpoint.t }
      (** VFS tells the file server about a recovered block driver *)
  | Fs_sync
  | Fs_reply of { result : (unit, Errno.t) result }
  (* ------- INET socket protocol (application -> INET) ------- *)
  | In_socket of { proto : sock_proto }
  | In_socket_reply of { result : (int, Errno.t) result }
  | In_connect of { sock : int; addr : int; port : int }
  | In_listen of { sock : int; port : int; backlog : int }
      (** [backlog] bounds the listener's un-accepted connections
          (handshaking + established); overflow SYNs are refused with
          RST *)
  | In_accept of { sock : int }
  | In_accept_reply of { result : (int, Errno.t) result }
  | In_send of { sock : int; grant : int; len : int }
  | In_recv of { sock : int; grant : int; len : int }
  | In_io_reply of { result : (int, Errno.t) result }
  | In_sendto of { sock : int; addr : int; port : int; grant : int; len : int }
  | In_recvfrom of { sock : int; grant : int; len : int }
  | In_recvfrom_reply of { result : (int * int * int, Errno.t) result }
      (** bytes, source address, source port *)
  | In_close of { sock : int }
  | In_reply of { result : (unit, Errno.t) result }
[@@deriving show, eq]

(** Non-blocking notification kinds (MINIX [notify]).  A notification
    carries no payload beyond its kind and source. *)
type notify_kind =
  | N_sig of Signal.t  (** signal delivery (SIGTERM for shutdown, SIGCHLD to RS) *)
  | N_irq of int  (** hardware interrupt on a registered line *)
  | N_alarm  (** kernel alarm set with the [alarm] kernel call *)
  | N_heartbeat_request  (** RS asking "are you alive?" (Sec. 5.1, input 4) *)
  | N_heartbeat_reply  (** driver's non-blocking "yes" *)
  | N_health_probe  (** RS's proactive liveness probe between heartbeats (policy v2) *)
  | N_health_reply  (** the component's non-blocking probe answer *)
  | N_ds_update  (** the data store has pending updates for a subscriber *)
[@@deriving show, eq]

val tag : t -> string
(** Constructor name only — compact label for traces. *)
