(** Client side of the service utility (Sec. 5).

    In MINIX this is the [service] command: it hands the reincarnation
    server a driver binary, stable name, privileges, heartbeat period
    and policy script.  These helpers are called from inside any
    process fiber that is allowed to IPC to RS. *)

module Errno := Resilix_proto.Errno
module Endpoint := Resilix_proto.Endpoint

val up : Resilix_proto.Spec.t -> (unit, Errno.t) result
(** Start a service ([service up]). *)

val down : string -> (unit, Errno.t) result
(** Stop a service permanently ([service down]). *)

val restart : string -> (unit, Errno.t) result
(** Kill and recover a running service ([service restart]) — defect
    class 3. *)

val refresh : ?program:string -> string -> (unit, Errno.t) result
(** Dynamic update ([service refresh]) — defect class 6; [program]
    optionally names a replacement binary. *)

val lookup : string -> (Endpoint.t * int, Errno.t) result
(** Current endpoint and pid of a service. *)

val degraded_components : unit -> (string list, Errno.t) result
(** Ask the data store which components are currently degraded (open
    circuit breaker) — the application-side query of the degradation
    contract. *)

val wait_until_up : string -> (Endpoint.t, Errno.t) result
(** Poll {!lookup} (with small sleeps) until the service is up or 5 s
    elapse. *)
