open Inltune_jir
module Lru = Inltune_support.Lru
module Metric = Inltune_obs.Metric

(* Process-wide cache of optimized methods (see the interface for the key
   and its soundness argument).  One mutex guards the LRU; values are never
   mutated after insertion, so a hit hands the same [Compile.optimized] to
   any number of VMs on any domain. *)

type walk = { program : string; decisions : string array }

(* Replaying one Opt search's compile stream, 100k instructions keep three
   quarters of the hits an unbounded cache gets, at half its footprint. *)
let budget_instrs = 100_000

let mu = Mutex.create ()
let lru : (string, Compile.optimized) Lru.t = Lru.create ~budget:budget_instrs ()

(* Counters are re-resolved per use so they survive [Metric.reset_all]. *)
let bump name n = if n > 0 then Metric.add (Metric.counter name) n
let publish_size () = Metric.set (Metric.counter "vm.compile_cache.instrs") (Lru.weight lru)

let find_or_optimize key optimize =
  match Mutex.protect mu (fun () -> Lru.find lru key) with
  | Some o ->
    bump "vm.compile_cache.hits" 1;
    o
  | None ->
    bump "vm.compile_cache.misses" 1;
    let o = optimize () in
    let weight = Ir.instr_count o.Compile.o_code in
    let evicted =
      Mutex.protect mu (fun () ->
          let n = Lru.add lru key o ~weight in
          publish_size ();
          n)
    in
    bump "vm.compile_cache.evictions" evicted;
    o

let clear () =
  Mutex.protect mu (fun () ->
      Lru.clear lru;
      publish_size ())
