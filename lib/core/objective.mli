open Inltune_opt

(** The paper's fitness functions (Section 3.1), normalized so the default
    heuristic scores exactly 1.0 per benchmark. *)

type goal =
  | Running  (** minimize running time (later iterations, no compilation) *)
  | Total    (** minimize total time (first iteration, incl. compilation) *)
  | Balance  (** minimize [factor * Running(s) + Total(s)],
                 [factor = Total(s_def) / Running(s_def)] *)

val goal_name : goal -> string
val goal_of_string : string -> goal

(** Per-benchmark metric, as a ratio to the default heuristic's value. *)
val perf : goal -> t:Measure.times -> default:Measure.times -> float

(** Suite-level fitness: geometric mean of {!perf} over the suite.  Baseline
    measurements are taken eagerly on the calling domain; the returned
    closure is safe to call from worker domains.  [plan] selects the pass
    schedule candidates run under (default {!Inltune_opt.Plan.default});
    baselines always use the default plan, so 1.0 means "the stock
    system". *)
val fitness :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  Heuristic.t -> float

(** Whether an exception is a transient evaluation failure — fuel
    exhaustion, a VM trap, a stack overflow, or an injected fault — worth a
    bounded retry before the genome is penalized. *)
val transient_failure : exn -> bool

(** The ["eval"] fault-injection gate every fitness-evaluation path checks
    (see {!Inltune_resilience.Faultinject}): raises on an injected [Raise],
    burns the fuel budget on [Hang], and returns [true] — evaluate to NaN —
    on [Corrupt]. *)
val eval_fault_gate : unit -> bool

(** A search's fitness over a suite, for any genome representation, in both
    evaluation modes: the grid for [Evolve.run ?grid] (the suite is the
    explicit benchmark axis, every (genome, benchmark) cell one independent
    pool work item, the ["eval"] fault gate checked per cell) and the scalar
    function (gate checked once per genome).  A genome's fitness is
    [combine genome cells], [cells] being {!perf} of [measure genome bm]
    against the default heuristic, in suite order; both modes use the exact
    same float operations, so they are bit-identical.  Baselines (default
    heuristic and plan, [iterations] as given) are measured eagerly on the
    calling domain; both results are safe to use from worker domains. *)
val evaluator :
  ?iterations:int ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  measure:('g -> Inltune_workloads.Suites.benchmark -> Measure.times) ->
  combine:('g -> float array -> float) ->
  unit ->
  ('g, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid
  * ('g -> float)

(** {!evaluator} for the GA's heuristic genomes under [plan]: the geometric
    mean of {!perf}. *)
val genome_evaluator :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  unit ->
  (int array, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid
  * (int array -> float)

(** The scalar half of {!genome_evaluator}. *)
val genome_fitness :
  ?plan:Plan.t ->
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  int array -> float

(** {!genome_evaluator} for plan genomes: the five Table 1 genes followed by
    the plan genes ({!Params.plan_genome_spec}), decoded together per
    evaluation ({!Params.split_plan_genome}).  Values are directly
    comparable to heuristic-only ones. *)
val plan_genome_evaluator :
  suite:Inltune_workloads.Suites.benchmark list ->
  scenario:Inltune_vm.Machine.scenario ->
  platform:Inltune_vm.Platform.t ->
  goal:goal ->
  unit ->
  (int array, Inltune_workloads.Suites.benchmark * Measure.times) Inltune_ga.Evolve.grid
  * (int array -> float)
