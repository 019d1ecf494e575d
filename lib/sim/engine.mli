(** Discrete-event simulation engine.

    The engine owns the virtual clock and a queue of pending events.
    Events scheduled for the same instant fire, by default, in the
    order they were scheduled.  The entire simulated operating system —
    kernel, device models, timers — is driven by this single queue,
    which is what makes runs deterministic and replayable.

    The same-instant order is pluggable ({!policy}): a seeded
    permutation lets the deterministic-simulation-testing layer
    ({!Resilix_dst}) explore adversarial interleavings, and every
    choice it makes is recorded into a compact {!decisions} trace so a
    failing schedule can be replayed exactly ([Scripted]). *)

type t
(** An engine instance. *)

type handle
(** A cancellation handle for a scheduled event. *)

(** How same-instant events are ordered.

    - [Fifo] (the default): scheduling order — the historical
      behaviour; no decisions are recorded and the hot path is
      unchanged.
    - [Seeded seed]: whenever [k >= 2] live events compete for the
      same instant, the one with the smallest
      [Rng.derive ~seed ~index:scheduling_seq] fires first — a seeded
      permutation that is a pure function of the seed and each event's
      scheduling position.
    - [Scripted trace]: replays a recorded decision trace; each entry
      is the index (in scheduling order) of the candidate that fired
      at the corresponding choice point, clamped to the candidate
      count.  When the trace runs out, further choices fall back to
      FIFO (index 0). *)
type policy = Fifo | Seeded of int | Scripted of int array

val create : ?policy:policy -> unit -> t
(** A fresh engine with the clock at {!Time.zero}.  [policy] defaults
    to [Fifo]. *)

val policy : t -> policy
(** The tie-break policy the engine was created with. *)

val decisions : t -> int array
(** The decision trace so far: one entry per instant at which at least
    two live events competed, each the chosen candidate's index in
    scheduling order.  Instants with a single (forced) event record
    nothing, which keeps the trace compact.  Always empty under
    [Fifo]. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule_at t ~at f] runs [f] when the clock reaches [at].
    [at] must not be in the past. *)

val schedule : t -> after:Time.t -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] after [after] has elapsed. *)

val cancel : handle -> unit
(** Prevents the event from firing.  Idempotent; safe after firing. *)

val step : t -> bool
(** Runs the single earliest pending event (under a non-[Fifo] policy,
    the candidate the policy chooses).  Returns [false] when the
    queue is empty.  Nothing inlines ({!advance_inline}) during a bare
    [step]. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** [run t] executes events until the queue is empty, [until] is
    reached (clock stops exactly at [until]), or [max_events] have
    fired.  Defaults: no time bound, no event bound.  Inlined events
    count against [max_events]. *)

val run_until : t -> deadline:Time.t -> (unit -> bool) -> bool
(** [run_until t ~deadline pred] fires events one at a time, checking
    [pred] before each: [true] as soon as [pred ()] holds, [false] once
    the clock has reached [deadline] first, and [pred ()] when the
    queue empties. *)

val advance_inline : t -> after:Time.t -> bool
(** [advance_inline t ~after] fires, in place, an event that the caller
    would otherwise schedule [after] from now and that would be the
    very next event of the active driving loop ({!run} or {!run_until}).
    It succeeds only when that loop would fire one more event at
    [now + after] (its time bound, event budget, deadline and stop
    predicate, checked as the loop checks them) and no entry, live or
    cancelled, sits in the queue at any instant in [\[now, now + after\]]
    (a bounded scan; when in doubt it refuses).  On success the event
    is forced, so no decision is recorded; it consumes the sequence
    number {!schedule} would have used, moves the clock to
    [now + after] and counts against the loop's budget, and the caller
    must then do the event's work and return straight to the loop.
    Returns [false], changing nothing, otherwise. *)

val inline_counts : t -> int * int
(** [(inlined, queued)]: events fired by {!advance_inline} and events
    scheduled through the queue, since creation. *)

val pending : t -> int
(** Number of events waiting (under [Fifo], including cancelled ones
    not yet reaped; choice policies reap cancelled same-instant
    events while gathering candidates). *)
