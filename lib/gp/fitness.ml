(* Fitness of a tree genome: decode to a static policy, run the benchmark
   through the unchanged VM under [Machine.config ~policy_factory], and
   score against the memoized default-heuristic baseline — the same
   geomean-vs-default objective the GA optimizes, plus parsimony pressure
   (α · tree size) so equally-fit smaller rules win.

   Measurements route through [Fitcache.lookup_or_measure_policy] with
   [~static:true]: under Opt the cache key is the exact decision walk, so
   structurally different trees making identical decisions — the dominant
   case late in a GP run — cost one simulation between them, and even share
   entries with plain heuristics that decide the same way. *)

module W = Inltune_workloads
module Measure = Inltune_core.Measure
module Fitcache = Inltune_core.Fitcache
module Objective = Inltune_core.Objective
module Metric = Inltune_obs.Metric
module Stats = Inltune_support.Stats
module Features = Inltune_policy.Features
open Inltune_opt
open Inltune_vm

(* Feature contexts are per-program static analyses; memoize them by
   physical program identity (suite programs are shared values), mirroring
   Fitcache's per-program info table. *)
let ctx_mu = Mutex.create ()
let ctxs : (Inltune_jir.Ir.program * Features.ctx) list ref = ref []

let ctx_of prog =
  Mutex.lock ctx_mu;
  let ctx =
    match List.find_opt (fun (p, _) -> p == prog) !ctxs with
    | Some (_, ctx) -> ctx
    | None ->
      let ctx = Features.make_ctx prog in
      ctxs := (prog, ctx) :: !ctxs;
      ctx
  in
  Mutex.unlock ctx_mu;
  ctx

let measure ?(iterations = 3) ~scenario ~platform tree bm =
  let prog = W.Suites.program bm in
  let ctx = ctx_of prog in
  let policy = Decode.policy ~ctx tree in
  Measure.of_measurement
    (Fitcache.lookup_or_measure_policy ~scenario ~platform ~policy ~digest:(Tree.digest tree)
       ~static:true ~inline_enabled:true ~plan:Plan.default ~iterations ~program:prog
       (fun walk ->
         Metric.incr (Metric.counter "measure.simulations");
         let cfg =
           Machine.config ~policy_factory:(fun _ -> policy) ?walk scenario Heuristic.default
         in
         Runner.measure ~iterations cfg platform prog))

let score ~parsimony tree cells =
  Stats.geomean cells +. (parsimony *. Float.of_int (Tree.size tree))

(* Baselines are forced eagerly on the calling domain (run_default is
   memoized), so worker-domain evaluations never race the memo fill. *)
let baselines ~iterations ~scenario ~platform suite =
  List.map (fun bm -> (bm, Measure.run_default ~iterations ~scenario ~platform bm)) suite

let grid ?(iterations = 3) ~suite ~scenario ~platform ~goal ~parsimony () =
  let base = baselines ~iterations ~scenario ~platform suite in
  {
    Inltune_ga.Evolve.grid_axis = Array.of_list base;
    grid_cell =
      (fun tree (bm, default) ->
        if Objective.eval_fault_gate () then Float.nan
        else Objective.perf goal ~t:(measure ~iterations ~scenario ~platform tree bm) ~default);
    grid_combine = (fun tree cells -> score ~parsimony tree cells);
  }

let fitness ?(iterations = 3) ~suite ~scenario ~platform ~goal ~parsimony () =
  let base = baselines ~iterations ~scenario ~platform suite in
  fun tree ->
    if Objective.eval_fault_gate () then Float.nan
    else begin
      let cells =
        List.map
          (fun (bm, default) ->
            Objective.perf goal ~t:(measure ~iterations ~scenario ~platform tree bm) ~default)
          base
      in
      score ~parsimony tree (Array.of_list cells)
    end
