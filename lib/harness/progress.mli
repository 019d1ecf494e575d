(** Stderr progress lines for {!Campaign.run}'s [?on_progress].

    The reporter renders completed/total, percentage, the last
    finished trial with its wall clock, a failure count and an ETA
    extrapolated from the campaign's throughput so far.  It writes to
    stderr (never stdout): campaign tables and [--metrics-out] JSONL
    stay byte-identical whether progress reporting is on or off, and
    for every [--jobs] value. *)

val make :
  when_:[ `Auto | `Always | `Never ] ->
  label:string ->
  unit ->
  (Campaign.progress -> unit) option
(** A fresh observer for one campaign, or [None]: [`Never] disables
    reporting, [`Always] forces it, [`Auto] enables it only when
    stderr is a tty (so redirected or CI runs stay quiet).  On a tty
    the observer keeps a single line updated in place (carriage
    return + erase-line); otherwise it appends one line per trial. *)
