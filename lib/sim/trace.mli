(** Structured trace log for the simulated system.

    The trace is a bounded ring of typed {!Resilix_obs.Event.t}
    events: the kernel, servers, drivers and experiments emit either a
    typed payload ({!emit_event}) or a free-form message ({!emit},
    which wraps it in [Event.Log]).  Tests assert on the recorded
    history structurally via {!query}. *)

(** Re-exported so existing [Trace.Info] / [e.Trace.time] code keeps
    working; a trace event {e is} an observability event. *)
type level = Resilix_obs.Event.level = Debug | Info | Warn | Error

type event = Resilix_obs.Event.t = {
  time : Time.t;  (** virtual time at which the event was emitted *)
  level : level;
  subsystem : string;  (** e.g. ["kernel"], ["rs"], ["inet"] *)
  payload : Resilix_obs.Event.payload;
}

type t
(** A bounded in-memory trace buffer. *)

val create : ?capacity:int -> unit -> t
(** [create ()] makes an empty trace keeping the last [capacity]
    (default 65536; at least 1) events in a ring buffer. *)

val emit : t -> now:Time.t -> level -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [emit t ~now level subsystem fmt ...] records one free-form
    [Log] event. *)

val emit_event : t -> now:Time.t -> ?level:level -> string -> Resilix_obs.Event.payload -> unit
(** [emit_event t ~now subsystem payload] records one typed event
    ([level] defaults to [Info]). *)

val events : t -> event list
(** All retained events, oldest first. *)

val message : event -> string
(** The event's one-line rendering (typed payloads render via
    {!Resilix_obs.Event.message}). *)

val query : t -> pred:(event -> bool) -> event list
(** Retained events satisfying [pred], oldest first:
    [query t ~pred:(fun e -> match e.payload with Defect d -> ... )]. *)

val clear : t -> unit
(** Drop all retained events.  The ring keeps its allocation (like
    [Sim.Heap.clear]) so a cleared trace records again without
    re-paying geometric growth; the vacated slots are blanked, so
    cleared events become collectable. *)

val allocated_slots : t -> int
(** The ring's currently allocated slot count (grows geometrically up
    to [capacity], and is retained across {!clear}).  A test probe —
    not part of the observable event history. *)

val pp_event : Format.formatter -> event -> unit
(** One-line rendering of an event. *)
