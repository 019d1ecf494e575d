type dl_mode = { promisc : bool; broadcast : bool } [@@deriving show, eq]
type dl_flags = { sent : bool; received : bool } [@@deriving show, eq]
type ds_value = V_endpoint of Endpoint.t | V_str of string | V_int of int [@@deriving show, eq]
type open_flags = { wr : bool; create : bool; trunc : bool } [@@deriving show, eq]
type sock_proto = Tcp | Udp [@@deriving show, eq]

type t =
  | Ok_reply
  | Err_reply of Errno.t
  | Dev_open of { minor : int }
  | Dev_close of { minor : int }
  | Dev_read of { minor : int; pos : int; grant : int; len : int }
  | Dev_write of { minor : int; pos : int; grant : int; len : int }
  | Dev_ioctl of { minor : int; op : string; arg : int }
  | Dev_reply of { result : (int, Errno.t) result }
  | Dl_conf of { mode : dl_mode }
  | Dl_conf_reply of { mac : int; result : (unit, Errno.t) result }
  | Dl_writev of { grant : int; len : int }
  | Dl_readv of { grant : int; len : int }
  | Dl_task_reply of { flags : dl_flags; read_len : int }
  | Rs_up of Spec.t
  | Rs_down of { name : string }
  | Rs_restart of { name : string }
  | Rs_refresh of { name : string; program : string option }
  | Rs_complain of { name : string; reason : string }
  | Rs_service_restart of { name : string }
  | Rs_reboot
  | Rs_lookup of { name : string }
  | Rs_lookup_reply of { result : (Endpoint.t * int, Errno.t) result }
  | Rs_reply of { result : (unit, Errno.t) result }
  | Ds_publish of { key : string; value : ds_value }
  | Ds_retrieve of { key : string }
  | Ds_retrieve_reply of { result : (ds_value, Errno.t) result }
  | Ds_delete of { key : string }
  | Ds_subscribe of { pattern : string }
  | Ds_check
  | Ds_check_reply of { result : ((string * ds_value) option, Errno.t) result }
  | Ds_degraded_list
  | Ds_degraded_list_reply of { result : (string list, Errno.t) result }
  | Ds_snapshot_store of { key : string; data : string }
  | Ds_snapshot_fetch of { key : string }
  | Ds_snapshot_reply of { result : (string, Errno.t) result }
  | Ds_reply of { result : (unit, Errno.t) result }
  | Pm_spawn of {
      name : string;
      program : string;
      args : string list;
      priv : Privilege.t;
      mem_kb : int;
    }
  | Pm_spawn_reply of { result : (Endpoint.t * int, Errno.t) result }
  | Pm_kill of { pid : int; signal : Signal.t }
  | Pm_waitpid of { pid : int }  (** [-1] = any zombie child (non-blocking) *)
  | Pm_wait_reply of { result : (int * string * Status.exit_status, Errno.t) result }
      (** pid, process name, exit status *)
  | Pm_pidof of { name : string }
  | Pm_pidof_reply of { result : (int, Errno.t) result }
  | Pm_reply of { result : (unit, Errno.t) result }
  | Vfs_open of { path : string; flags : open_flags }
  | Vfs_open_reply of { result : (int, Errno.t) result }
  | Vfs_read of { fd : int; grant : int; len : int }
  | Vfs_write of { fd : int; grant : int; len : int }
  | Vfs_io_reply of { result : (int, Errno.t) result }
  | Vfs_lseek of { fd : int; pos : int }
  | Vfs_close of { fd : int }
  | Vfs_ioctl of { fd : int; op : string; arg : int }
  | Vfs_reply of { result : (unit, Errno.t) result }
  | Fs_lookup of { path : string; create : bool }
  | Fs_lookup_reply of { result : (int * int, Errno.t) result }
  | Fs_readwrite of { ino : int; write : bool; pos : int; grant : int; len : int }
  | Fs_io_reply of { result : (int, Errno.t) result }
  | Fs_truncate of { ino : int }
  | Fs_new_driver of { major : int; endpoint : Endpoint.t }
  | Fs_sync
  | Fs_reply of { result : (unit, Errno.t) result }
  | In_socket of { proto : sock_proto }
  | In_socket_reply of { result : (int, Errno.t) result }
  | In_connect of { sock : int; addr : int; port : int }
  | In_listen of { sock : int; port : int; backlog : int }
  | In_accept of { sock : int }
  | In_accept_reply of { result : (int, Errno.t) result }
  | In_send of { sock : int; grant : int; len : int }
  | In_recv of { sock : int; grant : int; len : int }
  | In_io_reply of { result : (int, Errno.t) result }
  | In_sendto of { sock : int; addr : int; port : int; grant : int; len : int }
  | In_recvfrom of { sock : int; grant : int; len : int }
  | In_recvfrom_reply of { result : (int * int * int, Errno.t) result }
  | In_close of { sock : int }
  | In_reply of { result : (unit, Errno.t) result }
[@@deriving show, eq]

type notify_kind =
  | N_sig of Signal.t
  | N_irq of int
  | N_alarm
  | N_heartbeat_request
  | N_heartbeat_reply
  | N_health_probe
  | N_health_reply
  | N_ds_update
[@@deriving show, eq]

let tag = function
  | Ok_reply -> "Ok_reply"
  | Err_reply _ -> "Err_reply"
  | Dev_open _ -> "Dev_open"
  | Dev_close _ -> "Dev_close"
  | Dev_read _ -> "Dev_read"
  | Dev_write _ -> "Dev_write"
  | Dev_ioctl _ -> "Dev_ioctl"
  | Dev_reply _ -> "Dev_reply"
  | Dl_conf _ -> "Dl_conf"
  | Dl_conf_reply _ -> "Dl_conf_reply"
  | Dl_writev _ -> "Dl_writev"
  | Dl_readv _ -> "Dl_readv"
  | Dl_task_reply _ -> "Dl_task_reply"
  | Rs_up _ -> "Rs_up"
  | Rs_down _ -> "Rs_down"
  | Rs_restart _ -> "Rs_restart"
  | Rs_refresh _ -> "Rs_refresh"
  | Rs_complain _ -> "Rs_complain"
  | Rs_service_restart _ -> "Rs_service_restart"
  | Rs_reboot -> "Rs_reboot"
  | Rs_lookup _ -> "Rs_lookup"
  | Rs_lookup_reply _ -> "Rs_lookup_reply"
  | Rs_reply _ -> "Rs_reply"
  | Ds_publish _ -> "Ds_publish"
  | Ds_retrieve _ -> "Ds_retrieve"
  | Ds_retrieve_reply _ -> "Ds_retrieve_reply"
  | Ds_delete _ -> "Ds_delete"
  | Ds_subscribe _ -> "Ds_subscribe"
  | Ds_check -> "Ds_check"
  | Ds_check_reply _ -> "Ds_check_reply"
  | Ds_degraded_list -> "Ds_degraded_list"
  | Ds_degraded_list_reply _ -> "Ds_degraded_list_reply"
  | Ds_snapshot_store _ -> "Ds_snapshot_store"
  | Ds_snapshot_fetch _ -> "Ds_snapshot_fetch"
  | Ds_snapshot_reply _ -> "Ds_snapshot_reply"
  | Ds_reply _ -> "Ds_reply"
  | Pm_spawn _ -> "Pm_spawn"
  | Pm_spawn_reply _ -> "Pm_spawn_reply"
  | Pm_kill _ -> "Pm_kill"
  | Pm_waitpid _ -> "Pm_waitpid"
  | Pm_wait_reply _ -> "Pm_wait_reply"
  | Pm_pidof _ -> "Pm_pidof"
  | Pm_pidof_reply _ -> "Pm_pidof_reply"
  | Pm_reply _ -> "Pm_reply"
  | Vfs_open _ -> "Vfs_open"
  | Vfs_open_reply _ -> "Vfs_open_reply"
  | Vfs_read _ -> "Vfs_read"
  | Vfs_write _ -> "Vfs_write"
  | Vfs_io_reply _ -> "Vfs_io_reply"
  | Vfs_lseek _ -> "Vfs_lseek"
  | Vfs_close _ -> "Vfs_close"
  | Vfs_ioctl _ -> "Vfs_ioctl"
  | Vfs_reply _ -> "Vfs_reply"
  | Fs_lookup _ -> "Fs_lookup"
  | Fs_lookup_reply _ -> "Fs_lookup_reply"
  | Fs_readwrite _ -> "Fs_readwrite"
  | Fs_io_reply _ -> "Fs_io_reply"
  | Fs_truncate _ -> "Fs_truncate"
  | Fs_new_driver _ -> "Fs_new_driver"
  | Fs_sync -> "Fs_sync"
  | Fs_reply _ -> "Fs_reply"
  | In_socket _ -> "In_socket"
  | In_socket_reply _ -> "In_socket_reply"
  | In_connect _ -> "In_connect"
  | In_listen _ -> "In_listen"
  | In_accept _ -> "In_accept"
  | In_accept_reply _ -> "In_accept_reply"
  | In_send _ -> "In_send"
  | In_recv _ -> "In_recv"
  | In_io_reply _ -> "In_io_reply"
  | In_sendto _ -> "In_sendto"
  | In_recvfrom _ -> "In_recvfrom"
  | In_recvfrom_reply _ -> "In_recvfrom_reply"
  | In_close _ -> "In_close"
  | In_reply _ -> "In_reply"
