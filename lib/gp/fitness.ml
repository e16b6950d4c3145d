(* Fitness of a tree genome: decode to a static policy, run the benchmark
   through the unchanged VM under [Machine.config ~policy_factory], and
   score against the memoized default-heuristic baseline — the same
   geomean-vs-default objective the GA optimizes, plus parsimony pressure
   (α · tree size) so equally-fit smaller rules win.

   Measurements go through [Measure.measure] with a static [Fitcache.Policy]
   decider: under Opt the cache key is the exact decision walk, so
   structurally different trees making identical decisions — the dominant
   case late in a GP run — cost one simulation between them, and even share
   entries with plain heuristics that decide the same way. *)

module W = Inltune_workloads
module Measure = Inltune_core.Measure
module Fitcache = Inltune_core.Fitcache
module Objective = Inltune_core.Objective
module Stats = Inltune_support.Stats
module Features = Inltune_policy.Features

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

let measure ?iterations ~scenario ~platform tree bm =
  let policy = Decode.policy ~ctx:(ctx_of (W.Suites.program bm)) tree in
  let decider =
    Fitcache.Policy { policy = (fun _ -> policy); digest = Tree.digest tree; static = true }
  in
  Measure.measure ?iterations ~scenario ~platform ~decider bm

let score ~parsimony tree cells =
  Stats.geomean cells +. (parsimony *. Float.of_int (Tree.size tree))

let evaluator ?iterations ~suite ~scenario ~platform ~goal ~parsimony () =
  Objective.evaluator ?iterations ~suite ~scenario ~platform ~goal
    ~measure:(measure ?iterations ~scenario ~platform)
    ~combine:(score ~parsimony) ()
