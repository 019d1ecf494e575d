(** Fault plans: the scheduled failure workload of one exploration run.

    A plan is a time-sorted list of fault actions against named
    services — SIGKILLs (the paper's Sec. 7.1 crash script, made
    explicit and replayable) and binary-mutation fault injections
    (Sec. 7.2, by fault-type index into {!Resilix_vm.Fault.all}).
    Plans are pure data: they serialize into the JSONL repro file and
    are the first thing the shrinker minimizes. *)

type action =
  | Kill  (** SIGKILL the target's current process *)
  | Inject of int  (** one mutation of the given {!Resilix_vm.Fault.all} index *)

type entry = {
  at : int;  (** virtual time, us *)
  target : string;  (** stable service name, e.g. ["eth.rtl8139"] *)
  action : action;
}

type t = entry list
(** Sorted by [at], ascending. *)

val generate :
  seed:int ->
  targets:string list ->
  n:int ->
  ?start:int ->
  ?horizon:int ->
  ?inject_prob:float ->
  unit ->
  t
(** [generate ~seed ~targets ~n ()] draws [n] entries with times
    uniform in [\[start, horizon)] (defaults 400 ms and 2 s), targets
    picked uniformly, and each action an injection with probability
    [inject_prob] (default 0 = all kills).  A pure function of its
    arguments — the exploration layer calls it with per-run derived
    seeds. *)

val entry_to_string : entry -> string

val pp_compact : t -> string
(** One-line ["; "]-joined rendering for reports. *)
