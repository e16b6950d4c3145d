(** The process-wide compiled-method cache: optimized methods shared across
    simulations, pool domains and serve tenants.

    An optimizing compile under [Opt] is a pure function of the program, the
    method, the effective pass plan, the platform and the inline verdicts
    the pipeline reaches in that method.  When the caller knows those
    verdicts exactly in advance — the fitness cache's decision walk does —
    it hands them to the VM as a {!walk}, and {!Machine} keys the host work
    of each optimizing compile ({!Compile.optimize}) by

    program digest × method id × effective plan digest × platform digest ×
    that method's decision string.

    Each VM still installs the shared value itself ({!Compile.install_optimized}),
    so addresses, profile site ids and simulated compile cycles are exactly
    those of an uncached compile.

    Bounded by {!budget_instrs} optimized instructions, least recently used
    evicted first.  Counters: ["vm.compile_cache.hits"],
    ["vm.compile_cache.misses"], ["vm.compile_cache.evictions"], and the
    gauge ["vm.compile_cache.instrs"] (instructions currently held). *)

(** One program's exact per-method inline verdicts: [decisions.(mid)] is
    {!Inltune_opt.Inline.plan_policy}'s string for method [mid] under the
    configuration being simulated. *)
type walk = {
  program : string;          (** content digest of the program *)
  decisions : string array;  (** indexed by method id *)
}

(** Total optimized instructions the cache may hold. *)
val budget_instrs : int

(** [find_or_optimize key optimize] returns the value cached under [key],
    or runs [optimize] (outside the lock) and caches its result.  Two
    callers missing on one key at once both optimize; the first store
    wins. *)
val find_or_optimize : string -> (unit -> Compile.optimized) -> Compile.optimized

(** Drop every entry. *)
val clear : unit -> unit
