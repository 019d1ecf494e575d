(** A recovery-aware printer spooler (Sec. 6.3).

    Submits print jobs to [/dev/printer].  If the printer driver dies
    mid-job, the job is automatically reissued ("without bothering the
    user") — transparent recovery is impossible for character streams,
    so the price is possibly duplicated output, which the test
    observes on the printer device's paper trail. *)

type result = {
  mutable finished : bool;
  mutable jobs_done : int;
  mutable resubmissions : int;
  mutable gave_up : bool;
}

val fresh_result : unit -> result
(** All zeros. *)

val make : jobs:string list -> result -> unit -> unit
(** Print each job in order, reopening the printer and resubmitting a
    job after a driver failure; after 25 failed attempts on one job
    the queue is abandoned. *)
