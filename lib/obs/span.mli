(** Causal recovery spans.

    A span is opened by the reincarnation server the instant a defect
    is detected and closed when the component has been respawned and
    republished; in between, each recovery phase is marked with its
    virtual timestamp.  Spans are RS's only record of its recoveries:
    the closed spans of a run give per-component MTTR distributions,
    broken down by phase, and the failure counts and crash splits of
    the experiments. *)

module Status := Resilix_proto.Status

(** Recovery phases, in causal order. *)
type phase =
  | Detect  (** RS learned of the failure (exit status, missed heartbeat, complaint). *)
  | Policy  (** The recovery policy decided what to do. *)
  | Respawn  (** A fresh process incarnation exists. *)
  | Republish  (** The new endpoint reached the data store. *)
  | Reopen  (** A dependent re-bound to the new incarnation. *)

val phase_name : phase -> string

type span = {
  id : int;
  component : string;
  defect : Status.defect;
  repetition : int;  (** how many failures this component has had, 1-based *)
  opened_at : int;  (** virtual time of detection *)
  mutable marks : (phase * int) list;  (** newest first *)
  mutable closed_at : int option;
  mutable span_tags : (string * string) list;  (** free-form annotations, last write wins *)
}

type t
(** A collector accumulating spans for a whole run. *)

val create : unit -> t

val open_span : t -> component:string -> defect:Status.defect -> repetition:int -> now:int -> span
(** Start a recovery span (records a [Detect] mark at [now]). *)

val mark : span -> phase -> now:int -> unit
(** Timestamp a phase.  Re-marking a phase keeps the first mark. *)

val tag : span -> string -> string -> unit
(** Annotate the span with a key/value tag (e.g. ["policy"],
    ["breaker"]); re-tagging a key replaces its value. *)

val tags : span -> (string * string) list
(** All tags, sorted by key (deterministic for export). *)

val mark_component : t -> string -> phase -> now:int -> unit
(** Mark the component's most recent span.  Only open spans accept
    marks — except [Reopen], which may also be recorded once on a
    closed span (dependents re-bind after RS declares recovery
    complete).  No-op when the component has no eligible span. *)

val close : span -> now:int -> unit
(** Recovery complete.  Closing twice keeps the first close. *)

val close_component : t -> string -> now:int -> unit
(** Close the component's most recent span, if open. *)

val current : t -> string -> span option
(** The component's most recent still-open span. *)

val spans : t -> span list
(** Every span ever opened, oldest first. *)

val open_spans : t -> span list
(** The spans still open (recovery began but never completed),
    oldest first. *)

val incomplete : within:int -> t -> span list
(** Spans that violate recovery-span completeness, oldest first:
    never closed, or closed more than [within] us after detection.
    The DST invariant probe. *)

val concat : t list -> t
(** One collector holding every source's spans — {!spans} of the
    result lists the sources in order, each source's spans oldest
    first.  Used to aggregate per-trial collectors into one campaign
    report; ids keep their per-source values (they are only unique
    within a source). *)

val shape_fingerprint : t -> int64
(** Order-sensitive FNV-1a fingerprint of the run's recovery-span
    {e shape}: for every span in order, its component, defect kind,
    repetition, marked phases (in causal order) and open/closed state
    — but no timestamps.  Two runs recovering the same way at
    different speeds share a fingerprint; a different failure order,
    defect, phase set or an unclosed span changes it.  The DST
    coverage-signature probe. *)

val total_us : span -> int option
(** [closed_at - opened_at]; [None] while the span is open. *)

val phases : span -> (phase * int) list
(** Marks as deltas from [opened_at], in causal phase order. *)

(** Per-component MTTR summary over the closed spans. *)
type mttr = {
  m_component : string;
  n : int;  (** closed spans *)
  mean_us : int;
  min_us : int;
  max_us : int;
  p95_us : int;
  phase_mean_us : (phase * int) list;
      (** mean delta from detection for each phase that was ever marked *)
}

val report : t -> mttr list
(** One entry per component with at least one closed span, sorted by
    component name. *)
