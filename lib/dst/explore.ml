module Rng = Resilix_sim.Rng
module Engine = Resilix_sim.Engine
module Trial = Resilix_harness.Trial
module Campaign = Resilix_harness.Campaign
module Fnv = Resilix_checksum.Fnv

type outcome = {
  o_index : int;
  o_seed : int;
  o_plan : Fault_plan.t;
  o_decisions : int array;
  o_violations : Invariant.violation list;
}

type result = {
  scenario : string;
  runs : int;
  bound : int;
  failures : outcome list;  (** violating runs only, in run-index order *)
}

let default_bound = 1_000_000

(* ------------------------------------------------------------------ *)
(* Run specs: precomputed inputs for one exploration run               *)
(* ------------------------------------------------------------------ *)

(* Exploration executes batches of fully-determined (seed, plan,
   policy) triples on the campaign pool.  Precomputing them as specs
   lets fresh samples and mutants share one code path and lets the
   crash path report the exact plan that ran (a mutant's plan is not
   recoverable from its seed). *)
type run_spec = {
  rs_index : int;
  rs_seed : int;
  rs_plan : Fault_plan.t;
  rs_policy : Engine.policy;
}

let fresh_spec (scenario : Scenario.t) ~seed ~faults i =
  let child = Rng.derive ~seed ~index:i in
  {
    rs_index = i;
    rs_seed = child;
    rs_plan = scenario.Scenario.plan ~seed:child ~faults;
    rs_policy = Engine.Seeded child;
  }

let execute ?jobs ?on_progress ?progress_offset ?progress_total (scenario : Scenario.t)
    specs =
  let trials =
    List.map
      (fun spec ->
        Trial.make
          ~name:(Printf.sprintf "%s/run-%04d" scenario.Scenario.name spec.rs_index)
          ~seed:spec.rs_seed
          (fun () ->
            scenario.Scenario.run ~seed:spec.rs_seed ~policy:spec.rs_policy
              ~plan:spec.rs_plan))
      specs
  in
  (Campaign.run ?jobs ?on_progress ?progress_offset ?progress_total trials)
    .Campaign.outcomes

(* A crashed run never reported a shape, but it still needs a coverage
   signature so guided exploration can dedup and corpus it. *)
let crash_shape exn =
  Fnv.update_string (Fnv.update_string Fnv.start "crash\x1f") (Printexc.to_string exn)

let crash_violation exn =
  { Invariant.v_invariant = "scenario-crash"; v_detail = Printexc.to_string exn }

(* Judge one run: its violations, recorded decision trace, and shape. *)
let judge ~bound = function
  | Ok (report : Scenario.report) ->
      (Invariant.check ~bound report, report.Scenario.r_decisions, report.Scenario.r_shape)
  | Error exn -> ([ crash_violation exn ], [||], crash_shape exn)

let to_repro result outcome =
  {
    Repro.scenario = result.scenario;
    seed = outcome.o_seed;
    bound = result.bound;
    plan = outcome.o_plan;
    decisions = outcome.o_decisions;
    violations = outcome.o_violations;
  }

(* ------------------------------------------------------------------ *)
(* Guided exploration                                                  *)
(* ------------------------------------------------------------------ *)

type guided = {
  g_scenario : string;
  g_runs : int;
  g_bound : int;
  g_batch : int;
  g_fresh : int;
  g_mutants : int;
  g_signatures : string list;
  g_failing : (string * outcome) list;
  g_failures : outcome list;
  g_corpus : Corpus.t;
  g_new_entries : int;
}

let default_batch = 16

(* Every random choice a mutant spec makes flows from this generator:
   a pure function of (master seed, run index), on a stream disjoint
   from the machine RNG (which reuses the parent's seed), so mutation
   schedules never depend on wall-clock time, [--jobs], or pool
   ordering. *)
let mutation_rng ~seed i =
  Rng.create ~seed:(Rng.derive ~seed:(Rng.derive ~seed ~index:i) ~index:7777)

let mutant_spec ~seed ~parents ~targets i =
  let mrng = mutation_rng ~seed i in
  let parent = Rng.pick mrng parents in
  let repro = parent.Corpus.c_repro in
  let plan =
    if Array.length parents > 1 && Rng.bool mrng 0.2 then
      let other = Rng.pick mrng parents in
      Mutate.splice mrng repro.Repro.plan other.Corpus.c_repro.Repro.plan
    else Mutate.plan mrng ~targets repro.Repro.plan
  in
  let decisions =
    if Rng.bool mrng 0.5 then Mutate.decisions mrng repro.Repro.decisions
    else repro.Repro.decisions
  in
  {
    rs_index = i;
    rs_seed = repro.Repro.seed;
    rs_plan = plan;
    rs_policy = Engine.Scripted decisions;
  }

let run_guided ?jobs ?on_progress ?faults ?(bound = default_bound)
    ?(batch = default_batch) ?(fresh_only = false) ?corpus (scenario : Scenario.t) ~seed
    ~runs () =
  if runs <= 0 then invalid_arg "Explore.run_guided: runs must be positive";
  if batch <= 0 then invalid_arg "Explore.run_guided: batch must be positive";
  let faults = Option.value faults ~default:scenario.Scenario.default_faults in
  let targets = Array.of_list scenario.Scenario.targets in
  let corpus = match corpus with Some c -> c | None -> Corpus.create () in
  let seen = Hashtbl.create 64 in
  let failing = ref [] (* (key, outcome), reverse run order *) in
  let failures = ref [] (* every violating run, reverse run order *) in
  let fresh = ref 0 and mutants = ref 0 and new_entries = ref 0 in
  let executed = ref 0 and batch_index = ref 0 in
  while !executed < runs do
    let count = min batch (runs - !executed) in
    (* Odd batches mutate the corpus accumulated so far; even batches
       (and all batches until the corpus is non-empty) sample fresh.
       The corpus snapshot is key-sorted, so batch composition is a
       deterministic function of prior batches' results alone. *)
    let parents = Array.of_list (Corpus.entries corpus) in
    let mutating =
      (not fresh_only) && !batch_index mod 2 = 1 && Array.length parents > 0
    in
    let specs =
      List.init count (fun k ->
          let i = !executed + k in
          if mutating then mutant_spec ~seed ~parents ~targets i
          else fresh_spec scenario ~seed ~faults i)
    in
    if mutating then mutants := !mutants + count else fresh := !fresh + count;
    let collected =
      execute ?jobs ?on_progress ~progress_offset:!executed ~progress_total:runs scenario
        specs
    in
    (* Judge sequentially, in run order — corpus growth and finding
       dedup are single-threaded and deterministic. *)
    List.iter2
      (fun spec outcome ->
        let violations, decisions, shape = judge ~bound outcome in
        let key = Corpus.key (Corpus.signature_of ~violations ~shape) in
        if not (Hashtbl.mem seen key) then Hashtbl.add seen key ();
        let repro =
          {
            Repro.scenario = scenario.Scenario.name;
            seed = spec.rs_seed;
            bound;
            plan = spec.rs_plan;
            decisions;
            violations;
          }
        in
        if Corpus.add corpus ~key repro then incr new_entries;
        if violations <> [] then begin
          let o =
            {
              o_index = spec.rs_index;
              o_seed = spec.rs_seed;
              o_plan = spec.rs_plan;
              o_decisions = decisions;
              o_violations = violations;
            }
          in
          failures := o :: !failures;
          if not (List.mem_assoc key !failing) then failing := (key, o) :: !failing
        end)
      specs collected;
    executed := !executed + count;
    incr batch_index
  done;
  {
    g_scenario = scenario.Scenario.name;
    g_runs = runs;
    g_bound = bound;
    g_batch = batch;
    g_fresh = !fresh;
    g_mutants = !mutants;
    g_signatures = List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []);
    g_failing = List.rev !failing;
    g_failures = List.rev !failures;
    g_corpus = corpus;
    g_new_entries = !new_entries;
  }

(* Blind exploration is fresh-only guided exploration in one batch:
   the same specs, every failing run reported. *)
let run ?jobs ?on_progress ?faults ?bound scenario ~seed ~runs () =
  if runs <= 0 then invalid_arg "Explore.run: runs must be positive";
  let g =
    run_guided ?jobs ?on_progress ?faults ?bound ~batch:runs ~fresh_only:true scenario ~seed
      ~runs ()
  in
  { scenario = g.g_scenario; runs; bound = g.g_bound; failures = g.g_failures }

let guided_to_repro g outcome =
  {
    Repro.scenario = g.g_scenario;
    seed = outcome.o_seed;
    bound = g.g_bound;
    plan = outcome.o_plan;
    decisions = outcome.o_decisions;
    violations = outcome.o_violations;
  }

(* One canonical rendering, used by both the CLI and the determinism
   tests — "byte-identical for any --jobs" is pinned against this. *)
let guided_summary g =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "guided scenario=%s runs=%d bound=%d batch=%d fresh=%d mutants=%d signatures=%d \
     corpus-new=%d failing=%d\n"
    g.g_scenario g.g_runs g.g_bound g.g_batch g.g_fresh g.g_mutants
    (List.length g.g_signatures)
    g.g_new_entries
    (List.length g.g_failing);
  List.iter (fun k -> Printf.bprintf b "signature %s\n" k) g.g_signatures;
  List.iter
    (fun (k, o) ->
      Printf.bprintf b "failing %s run-%04d seed=%d invariants=%s\n" k o.o_index o.o_seed
        (String.concat "," (Invariant.names o.o_violations)))
    g.g_failing;
  Buffer.contents b
