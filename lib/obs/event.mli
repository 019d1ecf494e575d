(** Typed observability events.

    Every interesting state transition in the simulated system — IPC
    failures, safecopy faults, IRQ drops, process lifecycle, defect
    detection, policy decisions, restarts, data-store publications,
    recovery retries — is recorded as a variant carrying its real
    operands (endpoints, defect classes, counts) and a virtual
    timestamp.  The free-form [Log] constructor remains for narrative
    messages; [message] renders any payload to a one-line string for
    the stderr echo and for legacy substring queries. *)

module Endpoint := Resilix_proto.Endpoint
module Errno := Resilix_proto.Errno
module Status := Resilix_proto.Status

type level = Debug | Info | Warn | Error

(** Which IPC primitive an {!Ipc} event describes. *)
type ipc_kind = Send | Sendrec | Async_send | Notify

type payload =
  | Ipc of {
      kind : ipc_kind;
      src : Endpoint.t;
      dst : Endpoint.t;
      errno : Errno.t option;  (** [None] = delivered; [Some e] = failed with [e] *)
    }
  | Safecopy of {
      caller : Endpoint.t;
      owner : Endpoint.t;
      bytes : int;
      errno : Errno.t option;
    }
  | Irq of { line : int; delivered : bool }
  | Spawn of { ep : Endpoint.t; name : string; program : string }
  | Exit of { ep : Endpoint.t; name : string; status : Status.exit_status }
  | Defect of { component : string; defect : Status.defect; repetition : int }
      (** RS detected a failure: the start of a recovery (Sec. 5.1). *)
  | Policy_decision of { component : string; policy : string; decision : string }
      (** What the recovery policy chose to do (Sec. 5.2). *)
  | Policy_action of { component : string; action : string; repetition : int }
      (** One interpreted step of a policy script, in execution order —
          lets experiments and DST traces see which action fired. *)
  | Breaker of { component : string; from_state : string; to_state : string }
      (** A circuit-breaker state transition (policy v2). *)
  | Restart of { component : string; ep : Endpoint.t; pid : int }
      (** A restarted component is back up with a fresh endpoint. *)
  | Ds_publish of { key : string }
      (** The data store accepted a publication (drives reintegration). *)
  | Retry of { component : string; operation : string; count : int }
      (** A dependent re-issued work after a reincarnation (Sec. 6). *)
  | Heartbeat_miss of { component : string; misses : int }
  | Log of { text : string }  (** free-form narrative *)

type t = {
  time : int;  (** virtual time (microseconds) at which the event was emitted *)
  level : level;
  subsystem : string;  (** emitter, e.g. ["kernel"], ["rs"], ["inet"] *)
  payload : payload;
}

val message : payload -> string
(** One-line rendering of the payload; stable enough for legacy
    substring matching (e.g. exits render as
    ["process NAME (EP) terminated: killed(SIGKILL)"]). *)

val pp : Format.formatter -> t -> unit
(** ["[TIME] LVL subsystem message"]. *)

val shape_add : int64 -> t -> int64
(** Fold one event's schedule-shape contribution into an FNV-1a
    accumulator (see {!Resilix_checksum.Fnv}).  Only recovery-relevant
    payloads contribute — defects, policy decisions/actions, breaker
    transitions, restarts, heartbeat misses, DS publications — and
    only their stable identity fields (component/key/state names),
    never timestamps, endpoints, pids or counters.  Folding a run's
    trace in order yields its event-order fingerprint, one half of
    the DST coverage signature (the other is
    {!Resilix_obs.Span.shape_fingerprint}). *)

val json_escape : string -> string
(** Alias of {!Json.escape}. *)
