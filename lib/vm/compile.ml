open Inltune_jir
open Inltune_opt

(* The two compiler tiers.

   Baseline: no transformation at all (bytecode is executed as-is) but the
   code runs with a quality penalty and occupies more space — fast to
   compile, slow to run, exactly Jikes RVM's non-optimizing compiler.

   Optimizing: runs the full [Pipeline] (devirtualize, inline under the
   heuristic, fold, DCE) and charges compile cycles that grow superlinearly
   with the post-inlining IR size, which is what makes CALLER_MAX_SIZE = 2048
   "overly aggressive" on compile-heavy workloads, as the paper observes. *)

type tier = Baseline | O1 | Optimized

type compiled = {
  tier : tier;
  code : Ir.methd;
  flat : Lower.code;          (* lowered stream the flat interpreter runs *)
  addr : int;
  code_bytes : int;
  bytes_per_instr : int;
  block_offsets : int array;  (* instr-index offset of each block *)
  quality : int;              (* per-instruction cost multiplier *)
  block_spill_cost : int;     (* cycles per executed block for spill traffic *)
  spills : int;               (* intervals spilled by the register allocator *)
}

let block_offsets m =
  let n = Array.length m.Ir.blocks in
  let offsets = Array.make n 0 in
  let acc = ref 0 in
  for bi = 0 to n - 1 do
    offsets.(bi) <- !acc;
    acc := !acc + Array.length m.Ir.blocks.(bi).Ir.instrs + 1
  done;
  offsets

(* Baseline code keeps everything in memory anyway (its quality multiplier
   already reflects that), so no extra spill surcharge. *)
let baseline (plat : Platform.t) codespace ~profile m =
  let size = Size.of_method m in
  let code_bytes = Size.code_bytes ~expansion:plat.Platform.baseline_expansion m in
  let addr = Codespace.alloc codespace code_bytes in
  let instrs = max 1 (Ir.instr_count m) in
  let bytes_per_instr = max 1 (code_bytes / instrs) in
  let quality = plat.Platform.baseline_quality in
  let c =
    {
      tier = Baseline;
      code = m;
      flat =
        Lower.lower ~plat ~profile ~owner:m.Ir.mid ~quality ~addr ~bytes_per_instr
          ~spill:0 m;
      addr;
      code_bytes;
      bytes_per_instr;
      block_offsets = block_offsets m;
      quality;
      block_spill_cost = 0;
      spills = 0;
    }
  in
  (c, Platform.baseline_compile_cycles plat ~size)

(* The mid tier: dataflow optimizations without inlining — cheap linear
   compile time, decent code.  Used by the multi-level ladder scenario. *)
let o1 (plat : Platform.t) codespace program ~profile m =
  let code, _stats = Pipeline.run program Pipeline.no_inline_config m in
  let size = Size.of_method m in
  let code_bytes = Size.code_bytes ~expansion:plat.Platform.o1_expansion code in
  let addr = Codespace.alloc codespace code_bytes in
  let instrs = max 1 (Ir.instr_count code) in
  let ra = Regalloc.run ~phys_regs:plat.Platform.phys_regs code in
  let bytes_per_instr = max 1 (code_bytes / instrs) in
  let quality = plat.Platform.o1_quality in
  let block_spill_cost = Regalloc.block_spill_cost plat code ra in
  let c =
    {
      tier = O1;
      code;
      flat =
        Lower.lower ~plat ~profile ~owner:m.Ir.mid ~quality ~addr ~bytes_per_instr
          ~spill:block_spill_cost code;
      addr;
      code_bytes;
      bytes_per_instr;
      block_offsets = block_offsets code;
      quality;
      block_spill_cost;
      spills = ra.Regalloc.spilled;
    }
  in
  (c, Platform.o1_compile_cycles plat ~size)

(* The optimizing tier splits in two.  [optimize] is the host-expensive
   part — the pipeline, register allocation and the lowering template — and
   a pure function of the program, the pipeline's inputs and the platform,
   which is what lets {!Compile_cache} share its result.  [install_optimized]
   is what every VM does for itself: reserve code space, relocate the
   template to it against its own profile, and charge the simulated compile
   cycles. *)
type optimized = {
  o_code : Ir.methd;
  o_stats : Pipeline.stats;
  o_code_bytes : int;
  o_bytes_per_instr : int;
  o_block_offsets : int array;
  o_block_spill_cost : int;
  o_spills : int;
  o_template : Lower.template;
}

let optimize (plat : Platform.t) program config m =
  let code, stats = Pipeline.run program config m in
  let ra = Regalloc.run ~phys_regs:plat.Platform.phys_regs code in
  let code_bytes = Size.code_bytes ~expansion:plat.Platform.opt_expansion code in
  let bytes_per_instr = max 1 (code_bytes / max 1 (Ir.instr_count code)) in
  let block_spill_cost = Regalloc.block_spill_cost plat code ra in
  {
    o_code = code;
    o_stats = stats;
    o_code_bytes = code_bytes;
    o_bytes_per_instr = bytes_per_instr;
    o_block_offsets = block_offsets code;
    o_block_spill_cost = block_spill_cost;
    o_spills = ra.Regalloc.spilled;
    o_template =
      Lower.template ~plat ~owner:m.Ir.mid ~quality:1 ~bytes_per_instr
        ~spill:block_spill_cost code;
  }

let install_optimized (plat : Platform.t) codespace ~profile o =
  let addr = Codespace.alloc codespace o.o_code_bytes in
  let c =
    {
      tier = Optimized;
      code = o.o_code;
      flat = Lower.instantiate o.o_template ~profile ~addr;
      addr;
      code_bytes = o.o_code_bytes;
      bytes_per_instr = o.o_bytes_per_instr;
      block_offsets = o.o_block_offsets;
      quality = 1;
      block_spill_cost = o.o_block_spill_cost;
      spills = o.o_spills;
    }
  in
  (c, Platform.opt_compile_cycles plat ~size_peak:o.o_stats.Pipeline.size_peak)
