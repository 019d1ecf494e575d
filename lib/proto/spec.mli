(** Service specifications — the arguments passed to the reincarnation
    server when a driver or server is started through the service
    utility (Sec. 5): binary (program key), stable name, privileges,
    heartbeat period, and a policy script. *)

type t = {
  name : string;  (** stable name, e.g. ["eth.rtl8139"] *)
  program : string;  (** key into the program (binary) registry *)
  args : string list;  (** argv-style parameters for the program *)
  privileges : Privilege.t;  (** least-authority grant for the process *)
  heartbeat_period : int;
      (** microseconds between heartbeat requests; [0] disables heartbeating *)
  max_heartbeat_misses : int;  (** consecutive misses before defect class 4 fires *)
  policy : string;  (** policy-script registry key; [""] = direct immediate restart *)
  mem_kb : int;  (** address-space size for the process *)
}
[@@deriving show, eq]

val make :
  name:string ->
  program:string ->
  ?args:string list ->
  privileges:Privilege.t ->
  ?heartbeat_period:int ->
  ?max_heartbeat_misses:int ->
  ?policy:string ->
  ?mem_kb:int ->
  unit ->
  t
(** Build a spec with sensible defaults (500 ms heartbeats, 4 misses,
    direct-restart policy, 256 KB address space). *)
