open Inltune_opt
module Stats = Inltune_support.Stats

(* The paper's fitness functions (Section 3.1): minimize the geometric mean
   over the training suite of a per-benchmark metric — running time, total
   time, or the balance  Perf(s) = factor * Running(s) + Total(s)  with
   factor = Total(s_def) / Running(s_def).

   Each per-benchmark metric is normalized by the default heuristic's value
   for the same benchmark so the geomean is scale-free (1.0 = exactly the
   default heuristic's performance). *)

type goal = Running | Total | Balance

let goal_name = function Running -> "running" | Total -> "total" | Balance -> "balance"

let goal_of_string = function
  | "running" -> Running
  | "total" -> Total
  | "balance" -> Balance
  | s -> invalid_arg ("Objective.goal_of_string: " ^ s)

let perf goal ~(t : Measure.times) ~(default : Measure.times) =
  match goal with
  | Running -> t.Measure.running /. default.Measure.running
  | Total -> t.Measure.total /. default.Measure.total
  | Balance ->
    let factor = default.Measure.total /. default.Measure.running in
    let v = (factor *. t.Measure.running) +. t.Measure.total in
    let d = (factor *. default.Measure.running) +. default.Measure.total in
    v /. d

(* A reusable fitness function over a suite.  Baseline (default-heuristic,
   default-plan) measurements are taken once, up front, on the calling
   domain; the returned closure is then safe to call from worker domains.
   [plan] selects the pass schedule the candidate heuristics run under; the
   baselines always use the default plan, so 1.0 means "the stock system"
   regardless of the plan being evaluated. *)
let fitness ?plan ~suite ~scenario ~platform ~goal =
  let baselines =
    List.map (fun bm -> (bm, Measure.run_default ~scenario ~platform bm)) suite
  in
  fun heuristic ->
    let scores =
      List.map
        (fun (bm, default) ->
          let t = Measure.run ?plan ~scenario ~platform ~heuristic bm in
          perf goal ~t ~default)
        baselines
    in
    Stats.geomean (Array.of_list scores)

(* Which exceptions a fitness evaluation may raise transiently — worth a
   bounded retry before the genome is penalized and quarantined.  Everything
   else is a bug and should fail fast (the guarded GA still isolates it to
   the one genome, but does not retry). *)
let transient_failure = function
  | Inltune_vm.Machine.Out_of_fuel | Inltune_vm.Machine.Trap _ -> true
  | Stack_overflow -> true
  | Inltune_resilience.Faultinject.Injected _ -> true
  | _ -> false

(* The "eval" fault-injection gate every evaluation path checks, so CI can
   make the k-th evaluation raise, burn its fuel budget, or return corrupt
   output and exercise retry/penalty/quarantine end to end. *)
let eval_fault_gate () =
  match Inltune_resilience.Faultinject.check "eval" with
  | Some Inltune_resilience.Faultinject.Raise ->
    raise (Inltune_resilience.Faultinject.Injected "eval")
  | Some Inltune_resilience.Faultinject.Hang ->
    (* A hung evaluation is one that burns its whole fuel budget. *)
    raise Inltune_vm.Machine.Out_of_fuel
  | Some Inltune_resilience.Faultinject.Corrupt -> true
  | None -> false

(* Both evaluation modes of one search over a suite, for any genome
   representation.  The grid makes the benchmark axis explicit for
   [Evolve.run ?grid], so each (genome, benchmark) cell is one pool work
   item and the fault gate is checked per cell (one occurrence per
   simulation); the scalar form checks it once per genome.  Both apply the
   same float operations — per-benchmark [perf] in suite order, then
   [combine] — so the two modes produce bit-identical fitness.  Baselines
   (default heuristic, default plan) are measured once, up front, on the
   calling domain, so 1.0 means "the stock system" whatever the genome
   decodes to. *)
let evaluator ?iterations ~suite ~scenario ~platform ~goal ~measure ~combine () =
  let baselines =
    Array.of_list
      (List.map (fun bm -> (bm, Measure.run_default ?iterations ~scenario ~platform bm)) suite)
  in
  let cell g (bm, default) = perf goal ~t:(measure g bm) ~default in
  ( {
      Inltune_ga.Evolve.grid_axis = baselines;
      grid_cell = (fun g c -> if eval_fault_gate () then Float.nan else cell g c);
      grid_combine = combine;
    },
    fun g -> if eval_fault_gate () then Float.nan else combine g (Array.map (cell g) baselines) )

let geomean _ cells = Stats.geomean cells

let genome_evaluator ?plan ~suite ~scenario ~platform ~goal () =
  evaluator ~suite ~scenario ~platform ~goal ~combine:geomean
    ~measure:(fun g bm ->
      Measure.run ?plan ~scenario ~platform ~heuristic:(Heuristic.of_array g) bm)
    ()

let genome_fitness ?plan ~suite ~scenario ~platform ~goal =
  snd (genome_evaluator ?plan ~suite ~scenario ~platform ~goal ())

(* Plan-genome mode: the genome is the five Table 1 genes followed by the
   plan genes ({!Params.plan_genome_spec}); heuristic and plan are decoded
   together per evaluation. *)
let plan_genome_evaluator ~suite ~scenario ~platform ~goal () =
  evaluator ~suite ~scenario ~platform ~goal ~combine:geomean
    ~measure:(fun g bm ->
      let heuristic, plan = Params.split_plan_genome g in
      Measure.run ~plan ~scenario ~platform ~heuristic bm)
    ()
