open Inltune_jir
open Inltune_opt
open Inltune_vm

(** Decision-signature fitness cache.

    Before paying for a full VM simulation, compute a cheap semantic key for
    the (program, scenario, platform, decider) query — a signature of the
    inline/no-inline verdicts the Fig. 3/4 tests (or a policy) produce — and
    reuse the previously measured {!Inltune_vm.Runner.measurement} whenever
    it matches.  Distinct genomes with identical decisions (the paper's plateau
    observation) then cost one simulation instead of many; caching is
    bit-transparent because the compiled code is a function of the decision
    vector alone.

    Under [Opt] the signature hashes the exact per-method decision plans
    ({!Inltune_opt.Inline.plan} over the constant-propagated methods — the
    maximal sound merge); under [Adapt]/[Ladder], where decisions depend on
    the runtime profile, it projects the heuristic's thresholds onto the
    program's distinct method sizes, which is sufficient for identical
    verdicts at every reachable query.

    Two tiers: a process-wide mutex-guarded table (on by default), plus an
    optional append-only JSONL file ({!set_file}; CLI [--fitness-cache])
    whose entries are content-keyed — program digest × scenario × platform ×
    iterations × signature — so they survive restarts and compose with GA
    checkpoint/resume.  Counters: ["fitness.sig_hits"],
    ["fitness.sig_misses"], ["fitness.unique_plans"],
    ["fitness.cache_corrupt"] (skipped JSONL lines on load) and — with a
    tenant hook installed — ["fitness.cross_tenant_hits"]. *)

(** Hex digest of the program's canonical text form; memoized per program
    value.  Part of every cache key, so signatures can never collide across
    programs. *)
val program_digest : Ir.program -> string

(** What decides the inlining of a query: the Fig. 3/4 heuristic, or a
    first-class policy.  [policy] is the factory the VM applies to its live
    profile at each (re)compile; [static] asserts it reads nothing but the
    program and the site record — never the profile.  Under [Opt] with a
    walk-compatible plan that makes {!Inltune_opt.Inline.plan_policy} over
    the constprop'd methods exact, so the signature shares the heuristic
    walk's ["w:"] namespace and cache hits transfer across structurally
    different policies (and heuristics) that make identical decisions.
    Everywhere else a policy's signature is ["g:"] followed by [digest] —
    the policy artifact's content digest (sound, no cross-policy
    merging). *)
type decider =
  | Heuristic of Heuristic.t
  | Policy of { policy : Profile.t -> Policy.t; digest : string; static : bool }

(** The decision signature alone (no program digest or platform).
    ["off"] when [inline_enabled] is false or the plan's inline item is
    disabled — every decider then compiles identically.  Under [Opt] with
    a plan whose pre-inline schedule differs from the historical one
    ({!Inltune_opt.Plan.walk_compatible} is false) a heuristic's signature
    falls back to its raw parameters: still sound, just no cross-genome
    merging. *)
val signature :
  scenario:Machine.scenario ->
  decider:decider ->
  inline_enabled:bool ->
  plan:Plan.t ->
  Ir.program ->
  string

(** The full content-addressed cache key.  Non-default plans contribute
    their content digest, so their measurements never alias the default
    plan's. *)
val key :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  decider:decider ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  string

val enabled : unit -> bool

(** Toggle the cache (default on).  Disabled, {!lookup_or_measure} always
    simulates and the table is neither consulted nor extended. *)
val set_enabled : bool -> unit

(** Forget every in-memory measurement and tenant-ownership record, and
    empty the {!Inltune_vm.Compile_cache} (per-program signature data and
    the attached file are kept).  Tests and the off/on benchmark use this. *)
val clear : unit -> unit

(** Number of measurements currently in the in-memory table. *)
val size : unit -> int

(** [set_tenant_hook f] attributes cache traffic to tenants: [f ()] names
    the tenant the calling thread is currently working for (or [None] for
    anonymous work — e.g. pool worker domains).  Each key remembers the
    tenant that first paid for its simulation; a later hit by a *different*
    tenant bumps ["fitness.cross_tenant_hits"].  The default hook returns
    [None], keeping the whole mechanism inert outside the serve daemon. *)
val set_tenant_hook : (unit -> string option) -> unit

(** [set_file (Some path)] attaches the on-disk tier: existing entries are
    loaded, and every fresh measurement is appended as one JSONL line.
    Corrupt or truncated lines are skipped — never an abort — counted in
    ["fitness.cache_corrupt"], with a single summary warning per file on
    stderr carrying the first bad line's position and cause.  [set_file
    None] detaches. *)
val set_file : string option -> unit

(** Is the query's measurement already cached?  (No counters are bumped;
    [Measure.run_default] uses this to keep its memo counters truthful.) *)
val mem :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  decider:decider ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  Ir.program ->
  bool

(** [lookup_or_measure ... ~program simulate] returns the cached measurement
    for the query's key, or runs [simulate walk] (outside the cache lock)
    and stores — and, when a file is attached, appends — its result.
    [walk] is [Some] exactly when the signature is an exact decision walk
    (a ["w:"] signature): the per-method verdict strings it was built from,
    for the simulation's
    {!Inltune_vm.Machine.config} [walk].  When the cache is disabled this
    is just [simulate None]. *)
val lookup_or_measure :
  scenario:Machine.scenario ->
  platform:Platform.t ->
  decider:decider ->
  inline_enabled:bool ->
  plan:Plan.t ->
  iterations:int ->
  program:Ir.program ->
  (Compile_cache.walk option -> Runner.measurement) ->
  Runner.measurement
