(* The paper's measurement methodology (Section 5): run the benchmark at
   least twice inside one VM.  The first iteration pays for loading,
   compilation and inlining — its cost is *total time*.  The best of the
   later iterations is *running time*.

   Under Opt only the first iteration is interpreted; the later ones are
   replayed from it ([Machine.replay_iteration]), exactly.  Opt compiles
   every method on its first call and never recompiles, so a later
   iteration runs the same instruction stream at the same addresses, and
   the only cost that can differ is each direct-mapped I-cache set's first
   access: a miss in iteration 1 (the set was invalid), a miss later only
   if the line it wants is not the one the set ended iteration 1 holding.
   From its second access on a set behaves the same in every iteration.
   The replay needs the flat interpreter (it records each set's first line
   on the cold-miss path); the reference interpreter, Adapt and Ladder
   (whose sampler and recompiles change state between iterations) interpret
   every iteration. *)

type measurement = {
  total_cycles : int;     (* first iteration: exec + compile *)
  running_cycles : int;   (* best exec-only cycles of the later iterations *)
  first_exec_cycles : int;
  first_compile_cycles : int;
  opt_compiles : int;
  baseline_compiles : int;
  code_bytes : int;
  icache_misses : int;
  icache_accesses : int;
  steps : int;
  ret : int;
  out_hash : int;
}

let measure ?(iterations = 2) cfg plat prog =
  if iterations < 2 then invalid_arg "Runner.measure: need at least 2 iterations";
  let module Prof = Inltune_obs.Prof in
  let sim_start = if Prof.enabled () then Inltune_obs.Trace.now () else 0.0 in
  let vm = Machine.create cfg plat prog in
  (* Each iteration, interpreted or replayed, under a "vm.execute" span;
     lazy compiles inside it show up as nested "vm.compile" spans, so
     execute self-time is interpretation proper. *)
  let replay = cfg.Machine.scenario = Machine.Opt && not (Machine.reference_enabled ()) in
  let first = Prof.span "vm.execute" (fun () -> Machine.run_iteration vm) in
  let accesses = Machine.icache_accesses vm and misses = Machine.icache_misses vm in
  let run_one () =
    Prof.span "vm.execute" (fun () ->
        if replay then Machine.replay_iteration vm first ~accesses ~misses
        else Machine.run_iteration vm)
  in
  let best = ref max_int in
  let last_ret = ref first.Machine.ret in
  let last_hash = ref first.Machine.it_out_hash in
  for _ = 2 to iterations do
    let it = run_one () in
    if it.Machine.it_exec_cycles < !best then best := it.Machine.it_exec_cycles;
    last_ret := it.Machine.ret;
    last_hash := it.Machine.it_out_hash
  done;
  let m =
    {
      total_cycles = first.Machine.it_exec_cycles + first.Machine.it_compile_cycles;
      running_cycles = !best;
      first_exec_cycles = first.Machine.it_exec_cycles;
      first_compile_cycles = first.Machine.it_compile_cycles;
      opt_compiles = Machine.opt_compiles vm;
      baseline_compiles = Machine.baseline_compiles vm;
      code_bytes = Machine.code_bytes vm;
      icache_misses = Machine.icache_misses vm;
      icache_accesses = Machine.icache_accesses vm;
      steps = vm.Machine.steps;
      ret = !last_ret;
      out_hash = !last_hash;
    }
  in
  let module Trace = Inltune_obs.Trace in
  let module Event = Inltune_obs.Event in
  if Trace.enabled () then
    Trace.emit "vm.measure"
      ~fields:
        [
          ("prog", Event.Str prog.Inltune_jir.Ir.pname);
          ("scenario", Event.Str (Machine.scenario_name cfg.Machine.scenario));
          ("total_cycles", Event.Int m.total_cycles);
          ("running_cycles", Event.Int m.running_cycles);
          ("compile_cycles", Event.Int m.first_compile_cycles);
          ("opt_compiles", Event.Int m.opt_compiles);
          ("baseline_compiles", Event.Int m.baseline_compiles);
          ("code_bytes", Event.Int m.code_bytes);
          ("icache_misses", Event.Int m.icache_misses);
          ("icache_accesses", Event.Int m.icache_accesses);
        ];
  (* Per-simulation host-cost breakdown: where this simulation's wall time
     went.  compile comes from the VM's Prof-fed accumulator; the icache
     model's share is estimated from access count x calibrated per-access
     cost.  All of it is observability-side — the measurement record above
     is bit-identical with profiling on or off. *)
  if Inltune_obs.Prof.enabled () then begin
    let wall = Trace.now () -. sim_start in
    let compile = vm.Machine.compile_wall_s in
    let execute = Float.max 0.0 (wall -. compile) in
    let icache_model = Float.of_int m.icache_accesses *. Icache.ns_per_access () /. 1e9 in
    Inltune_obs.Metric.observe (Inltune_obs.Metric.histogram "vm.sim_wall_us") (wall *. 1e6);
    if Trace.enabled () then
      Trace.emit "vm.breakdown"
        ~fields:
          [
            ("prog", Event.Str prog.Inltune_jir.Ir.pname);
            ("scenario", Event.Str (Machine.scenario_name cfg.Machine.scenario));
            ("wall_us", Event.Float (wall *. 1e6));
            ("compile_us", Event.Float (compile *. 1e6));
            ("execute_us", Event.Float (execute *. 1e6));
            ("icache_model_us", Event.Float (icache_model *. 1e6));
          ]
  end;
  m

(* Pure semantic run: interpret the program once with everything that could
   perturb observable behaviour disabled (Opt scenario, chosen heuristic) and
   return what it computed.  Used by the semantics-preservation tests. *)
let observe ?(fuel = 100_000_000) ?(heuristic = Inltune_opt.Heuristic.never) plat prog =
  let cfg = Machine.config ~fuel Machine.Opt heuristic in
  let vm = Machine.create cfg plat prog in
  let it = Machine.run_iteration vm in
  (it.Machine.ret, it.Machine.it_outputs)
