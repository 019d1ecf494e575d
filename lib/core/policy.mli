(** Recovery policies, v2: Fig. 2 scripts plus circuit breakers.

    In the paper, policies are shell scripts the reincarnation server
    executes in a child process when a component fails; the script
    receives the component name, the failure reason and the current
    failure count, decides when (and whether) to restart, and may take
    side actions such as mailing an alert.  Here a policy is a state
    machine: the {!Script} constructor keeps exactly those Fig. 2
    semantics (an interpreted action list, still run in its own
    spawned process, restarts requested back from RS because "that is
    the only process with the privileges to create new servers and
    drivers"), and the {!Breaker} constructor wraps a script in a
    per-component circuit breaker — closed until [trip_threshold]
    failures land within [window_us], then open (the component is
    parked [Degraded], no restarts), then half-open after
    [cooldown_us] (one probe restart), closing again only once the
    probe incarnation survives [confirm_us].  The breaker state itself
    lives in RS: a policy script is a fresh process per failure and
    cannot carry state across invocations. *)

type action =
  | Backoff of { cap_sec : int }
      (** sleep [2^(repetition-1)] seconds (capped), {e except} for
          dynamic updates — Fig. 2 lines 6–8 *)
  | Restart  (** [service restart $component] — Fig. 2 line 9 *)
  | Alert of string
      (** send a failure alert to the given address — Fig. 2 lines 12–21
          (modelled as a data-store record under ["alert.*"]) *)
  | Log of string  (** record the failure and environment for inspection *)
  | Give_up_after of { max_failures : int }
      (** if the failure count exceeds the bound, stop recovering and
          take the component down ("when a required component ... fails
          too often") *)
  | Restart_dependents of string list
      (** user-requested restart of dependent services (the paper's
          dedicated network-server script restarting DHCP and X) *)
  | Reboot_after of { max_failures : int }
      (** if the failure count exceeds the bound, reboot the entire
          system — "clearly better than leaving the system in an
          unusable state" *)

(** Circuit-breaker parameters (all in virtual microseconds). *)
type breaker_config = {
  trip_threshold : int;  (** failures within [window_us] that open the breaker *)
  window_us : int;  (** sliding failure-counting window *)
  cooldown_us : int;  (** open -> half-open delay before the probe restart *)
  confirm_us : int;  (** half-open survival time before closing again *)
}

(** A policy state machine. *)
type t =
  | Script of action list
      (** the paper's Fig. 2 script: actions run in order;
          [Give_up_after] short-circuits *)
  | Breaker of { config : breaker_config; script : action list }
      (** [script] interprets each failure while the breaker is
          closed; RS drives the breaker transitions *)

(** The arguments the reincarnation server passes to a script
    (Fig. 2 lines 1–4). *)
type ctx = {
  component : string;  (** $1: which component failed *)
  reason : Resilix_proto.Status.defect;  (** $2: defect class *)
  repetition : int;  (** $3: current failure count *)
}

val script : action list -> t
(** [Script actions] — the Fig. 2 constructor. *)

val actions : t -> action list
(** The per-failure action script of either constructor. *)

val breaker_config : t -> breaker_config option
(** [Some config] for {!Breaker} policies, [None] for scripts. *)

val direct : t
(** Immediately restart, no backoff — the policy used for the
    performance experiments of Sec. 7.1. *)

val generic : ?alert:string -> unit -> t
(** The generic script of Fig. 2: binary exponential backoff capped at
    32 s (except updates), restart, optional alert. *)

val guarded : max_failures:int -> ?alert:string -> unit -> t
(** Like {!generic} but gives up (component stays down, alert raised)
    after [max_failures] failures. *)

val breaker :
  ?trip_threshold:int ->
  ?window_us:int ->
  ?cooldown_us:int ->
  ?confirm_us:int ->
  unit ->
  t
(** A circuit breaker (defaults: 3 failures within a 10 s window,
    5 s cooldown, 1 s confirm) around an immediate-restart script.
    No backoff: the breaker itself is the churn bound. *)

val run : ctx -> t -> unit
(** Interpret the policy's action script, emitting one
    [Policy_action] trace event per interpreted action.  Must execute
    inside a process fiber (it sleeps, and talks to RS and DS by
    IPC).  Breaker transitions are {e not} made here — RS owns them. *)
