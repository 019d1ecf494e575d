(** Seeded exploration: many runs of one scenario, each under a
    different schedule permutation and fault plan.

    {b Blind mode} ({!run}): run [i] of an exploration with master
    seed [s] uses child seed [Rng.derive ~seed:s ~index:i] for
    {e everything} — the machine's RNG, the fault-plan generator, and
    the engine's [Seeded] tie-break policy.  It is guided mode with
    [~fresh_only:true] in a single batch, reporting every failing
    run instead of one per signature.

    {b Guided mode} ({!run_guided}): batches alternate between fresh
    sampling (exactly blind mode's specs, same child seeds) and
    mutating a coverage {!Corpus} — replaying a corpus entry's machine
    seed under a {!Mutate}d fault plan and decision trace ([Scripted]
    policy).  A run enters the corpus when its coverage signature
    (violated-invariant set + shape fingerprint, see {!Corpus}) is
    new, and findings are deduplicated by signature.  The mutation
    schedule derives from the master seed and the run index alone, and
    corpus snapshots iterate key-sorted, so guided output is a pure
    function of [(scenario, seed, runs, faults, bound, batch)].

    Either way, runs are hermetic {!Resilix_harness.Trial}s executed
    on the campaign domain pool, and findings come back in run-index
    order — output is identical for any [?jobs]. *)

type outcome = {
  o_index : int;  (** run index within the exploration *)
  o_seed : int;  (** the run's machine seed (a mutant's parent seed) *)
  o_plan : Fault_plan.t;
  o_decisions : int array;  (** recorded tie-break trace *)
  o_violations : Invariant.violation list;  (** non-empty *)
}

type result = {
  scenario : string;
  runs : int;
  bound : int;
  failures : outcome list;  (** violating runs only, in run-index order *)
}

val default_bound : int
(** 1 s of virtual time — generous against the paper's ~6 ms
    restarts, so clean runs stay clean. *)

val run :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?faults:int ->
  ?bound:int ->
  Scenario.t ->
  seed:int ->
  runs:int ->
  unit ->
  result
(** Explore blind.  [faults] defaults to the scenario's
    [default_faults]; [bound] to {!default_bound}.  A run that raises
    becomes a ["scenario-crash"] finding rather than aborting the
    batch. *)

val to_repro : result -> outcome -> Repro.t
(** Package one finding as a saveable {!Repro.t}. *)

type guided = {
  g_scenario : string;
  g_runs : int;
  g_bound : int;
  g_batch : int;  (** batch size used *)
  g_fresh : int;  (** fresh-sample runs executed *)
  g_mutants : int;  (** corpus-mutation runs executed *)
  g_signatures : string list;
      (** distinct coverage-signature keys observed this exploration
          (clean and failing), sorted *)
  g_failing : (string * outcome) list;
      (** one finding per failing signature key — the first run to hit
          it — in run order *)
  g_failures : outcome list;  (** every violating run, in run order *)
  g_corpus : Corpus.t;
      (** the corpus after the exploration (the caller's [?corpus],
          grown, or a fresh one) *)
  g_new_entries : int;  (** corpus entries added by this exploration *)
}

val default_batch : int
(** 16 — small enough that the corpus grows between batches, large
    enough to keep the domain pool busy. *)

val run_guided :
  ?jobs:int ->
  ?on_progress:(Resilix_harness.Campaign.progress -> unit) ->
  ?faults:int ->
  ?bound:int ->
  ?batch:int ->
  ?fresh_only:bool ->
  ?corpus:Corpus.t ->
  Scenario.t ->
  seed:int ->
  runs:int ->
  unit ->
  guided
(** Explore guided.  Odd-numbered batches mutate the corpus when it is
    non-empty; all other batches sample fresh (with blind mode's exact
    child seeds).  [fresh_only:true] disables mutation entirely —
    every run is a blind sample, but signatures and the corpus are
    still tracked, making it the baseline a guided run is measured
    against.  [corpus] seeds the exploration with prior entries
    (loaded from disk via {!Corpus.load}); signatures already in it
    are not re-reported, but still count into {!guided.g_signatures}
    when re-observed.  Progress events span the whole exploration
    ([p_total = runs]) even though batches run as separate campaigns. *)

val guided_to_repro : guided -> outcome -> Repro.t
(** Package one guided finding as a saveable {!Repro.t}.  A mutant's
    repro replays exactly: its machine seed is the parent's and its
    plan and decision trace are stored verbatim. *)

val guided_summary : guided -> string
(** Canonical multi-line rendering: a header line (run/signature
    counts), one ["signature <key>"] line per distinct signature, one
    ["failing <key> ..."] line per deduplicated finding.  Both the CLI
    and the determinism tests print this — byte-identical for any
    [?jobs] and across repeated runs. *)
