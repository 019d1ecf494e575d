(** The reincarnation server (RS) — the heart of the paper.

    RS is the (logical) parent of every system process.  It starts
    services from specs handed to it by the service utility, and then
    guards them for the rest of their lives:

    - {b Defect detection} (Sec. 5.1): SIGCHLD notifications from the
      process manager cover exits, panics, exceptions and kills
      (classes 1–3); periodic non-blocking heartbeat requests catch
      stuck processes (class 4); authorized servers can complain about
      protocol violations (class 5); and the administrator can request
      a restart or a dynamic update (classes 3 and 6).
    - {b Policy-driven recovery} (Sec. 5.2): on a defect, RS runs the
      service's policy script in a child process, passing the
      component name, defect class and failure count; the script asks
      RS to perform the actual restart.
    - {b Post-restart reintegration} (Sec. 5.3): after a restart RS
      publishes the service's new endpoint in the data store, whose
      publish/subscribe machinery pushes the update to dependents
      (network server, VFS) that then re-integrate the driver.
    - {b Circuit breakers and degradation} (policy v2): a service whose
      policy is a {!Policy.Breaker} gets a per-component breaker.
      [trip_threshold] failures within [window_us] park the service in
      an explicit [`Degraded] state — its endpoint is unpublished and a
      ["degraded.<name>"] record appears in the data store so VFS/INET
      reject new work with [E_degraded] instead of blocking.  After
      [cooldown_us] RS half-opens the breaker and probes with one fresh
      incarnation; surviving [confirm_us] closes it again (publishing a
      0-valued degraded record first so subscribers observe the
      clearing), a failure re-opens it.  While the breaker is closed,
      RS also sends proactive [N_health_probe] notifications at the
      midpoint of each heartbeat cycle. *)

module Endpoint := Resilix_proto.Endpoint

(** Circuit-breaker states (policy v2). *)
type breaker_state = B_closed | B_open | B_half_open

val breaker_state_name : breaker_state -> string
(** ["closed"] / ["open"] / ["half-open"]. *)

(** Read-only breaker snapshot, for the DST invariants and the
    [resilix health] tooling.  Safe to call from outside the
    simulation. *)
type breaker_stat = {
  bs_component : string;
  bs_state : breaker_state;
  bs_trips : int;  (** closed->open and half-open->open transitions *)
  bs_probes : int;  (** half-open probe restarts attempted *)
  bs_threshold : int;
  bs_window_us : int;
  bs_cooldown_us : int;
  bs_opened_at : int;  (** time of the most recent trip; 0 if never tripped *)
  bs_degraded_since : int option;  (** start of the current degraded episode, if any *)
}

type t
(** Shared RS handle (state readable from outside the simulation). *)

val create :
  register_program:(string -> (unit -> unit) -> unit) ->
  ?policies:(string * Policy.t) list ->
  ?complainers:Endpoint.t list ->
  spans:Resilix_obs.Span.t ->
  metrics:Resilix_obs.Metrics.t ->
  unit ->
  t
(** [register_program] installs policy-script bodies in the system's
    binary registry (the kernel program table).  [policies] maps the
    policy names referenced by service specs to their definitions.
    [complainers] are the endpoints allowed to use defect class 5
    (typically VFS, MFS, INET).  RS polls every 100 ms, and a
    SIGTERMed component gets 2 s before SIGKILL.  [spans] is the span
    collector recoveries are recorded into (shared, so dependents can
    mark their re-open phase); RS's counters and histograms live in
    [metrics]. *)

val body : t -> unit -> unit
(** The process body; boot runs this at the well-known RS slot. *)

val spans : t -> Resilix_obs.Span.t
(** The recovery span collector, RS's only record of its recoveries:
    one span per detected failure, opened at detection, phase-marked
    through policy / respawn / republish, and closed when the service
    is back up.  A failure the circuit breaker absorbs closes at the
    trip with no [Respawn] mark.  Only RS opens spans. *)

val service_up : t -> string -> bool
(** Whether the named service is currently believed up. *)

val service_state : t -> string -> [ `Up | `Restarting | `Down | `Degraded | `Unknown ]
(** Current lifecycle state of the named service ([`Restarting]
    includes a policy script mid-backoff; [`Degraded] means the
    circuit breaker is open and the service is parked). *)

val degraded_components : t -> string list
(** Services currently parked [`Degraded], sorted by name (RS's own
    view; the data store serves the same list to other processes via
    [Ds_degraded_list]). *)

val breaker_stats : t -> breaker_stat list
(** One snapshot per breaker-guarded service, sorted by name. *)

val restarted : Resilix_obs.Span.span -> bool
(** The span ended in a restart: it is closed and carries a
    [Respawn] mark (a breaker-absorbed span has none). *)

val restarts_of : t -> string -> int
(** Number of the named service's spans that ended in a restart. *)

val reboots : t -> int
(** Times a policy script resorted to a full system reboot. *)
