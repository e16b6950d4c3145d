open Inltune_jir
open Inltune_opt

(** The two compiler tiers: the fast non-optimizing baseline compiler and the
    optimizing compiler that runs the full {!Inltune_opt.Pipeline}. *)

type tier = Baseline | O1 | Optimized

type compiled = {
  tier : tier;
  code : Ir.methd;            (** the code the interpreter executes *)
  flat : Lower.code;          (** lowered stream the flat interpreter runs *)
  addr : int;                 (** code-space address (I-cache tag base) *)
  code_bytes : int;
  bytes_per_instr : int;
  block_offsets : int array;  (** instruction-index offset of each block *)
  quality : int;              (** per-instruction cost multiplier *)
  block_spill_cost : int;     (** cycles per executed block (spill traffic) *)
  spills : int;               (** intervals spilled by the register allocator *)
}

(** Compile with the baseline tier: no transformation, cheap compile cycles,
    slow bulky code.  Returns the compiled method and compile cycles. *)
val baseline : Platform.t -> Codespace.t -> profile:Profile.t -> Ir.methd -> compiled * int

(** Compile with the mid tier: dataflow passes, no inlining; linear compile
    cost, intermediate code quality.  Used by the ladder scenario. *)
val o1 : Platform.t -> Codespace.t -> Ir.program -> profile:Profile.t -> Ir.methd -> compiled * int

(** The optimizing tier's host work on one method: the pipeline's output,
    its statistics, and the platform's size and register-allocation
    figures for it.  Never mutated once built, so one value may be
    installed by many VMs. *)
type optimized = {
  o_code : Ir.methd;
  o_stats : Pipeline.stats;
  o_code_bytes : int;
  o_block_spill_cost : int;  (** cycles per executed block (spill traffic) *)
  o_spills : int;            (** intervals spilled by the register allocator *)
}

(** Run the pipeline under [config] and allocate registers. *)
val optimize : Platform.t -> Ir.program -> Pipeline.config -> Ir.methd -> optimized

(** Install optimized code in one VM: reserve its code space and lower it
    against the VM's profile, with call sites attributed to [owner].
    Returns the compiled method and the simulated compile cycles, which
    grow superlinearly in the post-inlining peak size. *)
val install_optimized :
  Platform.t -> Codespace.t -> profile:Profile.t -> owner:Ir.mid -> optimized -> compiled * int
