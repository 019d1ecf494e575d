module Endpoint = Resilix_proto.Endpoint
module Errno = Resilix_proto.Errno
module Signal = Resilix_proto.Signal
module Status = Resilix_proto.Status

type level = Debug | Info | Warn | Error

type ipc_kind = Send | Sendrec | Async_send | Notify

type payload =
  | Ipc of { kind : ipc_kind; src : Endpoint.t; dst : Endpoint.t; errno : Errno.t option }
  | Safecopy of { caller : Endpoint.t; owner : Endpoint.t; bytes : int; errno : Errno.t option }
  | Irq of { line : int; delivered : bool }
  | Spawn of { ep : Endpoint.t; name : string; program : string }
  | Exit of { ep : Endpoint.t; name : string; status : Status.exit_status }
  | Defect of { component : string; defect : Status.defect; repetition : int }
  | Policy_decision of { component : string; policy : string; decision : string }
  | Policy_action of { component : string; action : string; repetition : int }
  | Breaker of { component : string; from_state : string; to_state : string }
  | Restart of { component : string; ep : Endpoint.t; pid : int }
  | Ds_publish of { key : string }
  | Retry of { component : string; operation : string; count : int }
  | Heartbeat_miss of { component : string; misses : int }
  | Log of { text : string }

type t = { time : int; level : level; subsystem : string; payload : payload }

let level_tag = function Debug -> "DBG" | Info -> "INF" | Warn -> "WRN" | Error -> "ERR"

let kind_name = function
  | Send -> "send"
  | Sendrec -> "sendrec"
  | Async_send -> "asend"
  | Notify -> "notify"

let status_string = function
  | Status.Exited code -> Printf.sprintf "exited(%d)" code
  | Status.Panicked msg -> Printf.sprintf "panicked(%s)" msg
  | Status.Killed signal -> Printf.sprintf "killed(%s)" (Signal.to_string signal)

let errno_suffix = function
  | None -> "ok"
  | Some e -> Errno.to_string e

let message = function
  | Ipc { kind; src; dst; errno } ->
      Printf.sprintf "ipc %s %s -> %s: %s" (kind_name kind) (Endpoint.to_string src)
        (Endpoint.to_string dst) (errno_suffix errno)
  | Safecopy { caller; owner; bytes; errno } ->
      Printf.sprintf "safecopy %s <-> %s (%d bytes): %s" (Endpoint.to_string caller)
        (Endpoint.to_string owner) bytes (errno_suffix errno)
  | Irq { line; delivered } ->
      Printf.sprintf "irq %d %s" line (if delivered then "delivered" else "dropped")
  | Spawn { ep; name; program } ->
      Printf.sprintf "spawn %s as %s program=%s" name (Endpoint.to_string ep) program
  | Exit { ep; name; status } ->
      Printf.sprintf "process %s (%s) terminated: %s" name (Endpoint.to_string ep)
        (status_string status)
  | Defect { component; defect; repetition } ->
      Printf.sprintf "defect in %s: %s (failure #%d)" component (Status.defect_name defect)
        repetition
  | Policy_decision { component; policy; decision } ->
      Printf.sprintf "policy %s for %s: %s" policy component decision
  | Policy_action { component; action; repetition } ->
      Printf.sprintf "policy action %s for %s (failure #%d)" action component repetition
  | Breaker { component; from_state; to_state } ->
      Printf.sprintf "breaker for %s: %s -> %s" component from_state to_state
  | Restart { component; ep; pid } ->
      Printf.sprintf "service %s up as %s (pid %d)" component (Endpoint.to_string ep) pid
  | Ds_publish { key } -> Printf.sprintf "ds publish %s" key
  | Retry { component; operation; count } ->
      Printf.sprintf "retry %s after %s reincarnation (%d pending)" operation component count
  | Heartbeat_miss { component; misses } ->
      Printf.sprintf "%s missed %d heartbeats" component misses
  | Log { text } -> text

(* DST coverage probe: fold one event's schedule-shape contribution
   into an FNV-1a accumulator.  Only recovery-relevant payloads
   contribute (defects, policy decisions/actions, breaker transitions,
   restarts, heartbeat misses, DS publications) and only their stable
   identity fields — component/key/state names — never timestamps,
   endpoints, pids or counters, so the fingerprint captures the
   *order and kind* of recovery events, not the speed of one
   particular schedule.  Fields are 0x1f-separated against aliasing. *)
let fp h s = Resilix_checksum.Fnv.update_string (Resilix_checksum.Fnv.update_string h s) "\x1f"

let shape_add h e =
  let tag kind = fp (fp h kind) e.subsystem in
  match e.payload with
  | Defect { component; defect; _ } -> fp (fp (tag "defect") component) (Status.defect_name defect)
  | Policy_decision { component; policy; decision } ->
      fp (fp (fp (tag "policy-decision") component) policy) decision
  | Policy_action { component; action; _ } -> fp (fp (tag "policy-action") component) action
  | Breaker { component; from_state; to_state } ->
      fp (fp (fp (tag "breaker") component) from_state) to_state
  | Restart { component; _ } -> fp (tag "restart") component
  | Heartbeat_miss { component; _ } -> fp (tag "heartbeat-miss") component
  | Ds_publish { key } -> fp (tag "ds-publish") key
  | Ipc _ | Safecopy _ | Irq _ | Spawn _ | Exit _ | Retry _ | Log _ -> h

let pp ppf e =
  let time_pp ppf t =
    if t >= 1_000_000 || t <= -1_000_000 then
      Format.fprintf ppf "%.6fs" (float_of_int t /. 1_000_000.)
    else if t >= 1_000 || t <= -1_000 then Format.fprintf ppf "%.3fms" (float_of_int t /. 1_000.)
    else Format.fprintf ppf "%dus" t
  in
  Format.fprintf ppf "[%a] %s %-8s %s" time_pp e.time (level_tag e.level) e.subsystem
    (message e.payload)

let json_escape = Json.escape
