(** Campaign runner: execute a list of {!Trial}s across OCaml domains.

    Results come back keyed by trial index, so the output list is in
    the same order as the input list no matter how many workers ran or
    which worker picked up which trial — with hermetic trial bodies
    (see {!Trial}), [run ~jobs:1] and [run ~jobs:n] are byte-identical.

    There is one entry point, {!run}, and it is result-typed: every
    trial's outcome is reported in a {!run_result} record, successful
    or not, and {b all} failed trials are listed (as a {!failure}
    list, lowest index first, each with its trial's name) — never just
    the first exception a worker happened to hit.  Callers that want
    the historical "give me the values or raise" behaviour compose
    [values (run ...)]; callers that want to keep partial results (the
    DST explorer treats a crashed run as a finding, not an abort) read
    [.outcomes] directly.

    Long campaigns are observable through [?on_progress]: an optional
    observer invoked on trial completion from the worker domains,
    serialized by an internal mutex.  It is strictly off the stdout
    path (drive a stderr progress line with it — see {!Progress}), so
    enabling it cannot perturb the deterministic output contract. *)

type progress = {
  p_index : int;  (** the finished trial's index in the input list *)
  p_name : string;  (** its {!Trial.t} name *)
  p_elapsed_s : float;  (** that trial's wall-clock runtime, seconds *)
  p_failed : bool;  (** the trial body raised *)
  p_completed : int;  (** trials finished so far, this one included *)
  p_total : int;  (** campaign size *)
}
(** One progress event, emitted after each trial completes.  Events
    arrive serialized (never two observer calls at once) but not
    necessarily with monotonic [p_completed]: a worker can be
    preempted between finishing its trial and reporting it. *)

type failure = {
  f_index : int;  (** the failing trial's index in the input list *)
  f_name : string;  (** its {!Trial.t} name *)
  f_error : exn;  (** the exception its body raised *)
}

exception Partial of failure list
(** Raised by {!values} when at least one trial failed: every failure,
    lowest trial index first.  A printer is registered, so an
    uncaught [Partial] still names each failed trial. *)

val failures_summary : failure list -> string
(** Multi-line human-readable rendering ("campaign: N trial(s)
    failed" followed by one indented line per failure) for callers
    that report and exit non-zero. *)

type 'a run_result = {
  outcomes : ('a, exn) result list;
      (** one per trial, input order: [Ok v] for trials that returned,
          [Error e] for trials that raised *)
  failures : failure list;
      (** the [Error] outcomes again, with index and name attached,
          lowest index first; empty iff every trial succeeded *)
}

val run :
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  ?progress_offset:int ->
  ?progress_total:int ->
  'a Trial.t list ->
  'a run_result
(** [run trials] executes every trial and reports every outcome.
    [jobs] caps the number of domains (clamped to [1 .. length
    trials]; [jobs:1] runs on the calling domain with no spawns at
    all; [jobs < 1] is [Invalid_argument]).  Trials are handed out
    dynamically (an atomic next-index counter), so long trials don't
    serialize behind short ones.

    Callers that split one logical campaign into several [run] calls
    (e.g. the guided explorer's batches) keep a single coherent
    progress stream with [progress_offset] (added to [p_index] and
    [p_completed]) and [progress_total] (reported as [p_total] when it
    exceeds [length trials + progress_offset]).  Both affect progress
    events only, never outcomes. *)

val values : 'a run_result -> 'a list
(** The successful results, input order — or {!Partial} with the full
    failure list if any trial failed.  [values (run trials)] is the
    historical [Campaign.run]. *)
