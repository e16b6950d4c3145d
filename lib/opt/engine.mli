open Inltune_jir
(** The shared inline engine: one transformation, many strategies.

    Every inlining strategy in the repository — the paper's tuned Fig. 3/4
    heuristic, the small-leaf / hot-path / region strategies, the knapsack
    baseline, trained policy trees — drives this engine through a
    first-class {!Policy.t}.  The engine owns the mechanics (splicing,
    register/label remapping, the recursion guard, the absolute
    {!max_expanded_size} cap, decision recording and tracing); strategies
    own only the per-site accept/reject choice. *)

type stats = {
  mutable sites_seen : int;
  mutable sites_inlined : int;
  mutable hot_sites_seen : int;
  mutable hot_sites_inlined : int;
}

val fresh_stats : unit -> stats

(** Why a call site was or wasn't inlined: the policy rule that fired, or
    one of the engine's own guards. *)
type reason =
  | Rule of Policy.verdict  (** the policy's verdict, with the rule name *)
  | Recursive               (** callee already on the inline chain *)
  | Space_cap               (** accepted by the policy, blocked by
                                {!max_expanded_size} *)

val reason_accepts : reason -> bool
val reason_name : reason -> string

(** One record per call site the engine examined, in decision order. *)
type decision = {
  d_site_owner : Ir.mid;
  d_callee : Ir.mid;
  d_callee_size : int;
  d_depth : int;
  d_caller_size : int;  (** expanded caller size when the site was decided *)
  d_reason : reason;
}

val decision_accepts : decision -> bool

(** Hard cap on the expanded size of any single method, in size-estimate
    units; a code-space sanity net above anything a policy's caller test
    normally allows. *)
val max_expanded_size : int

(** [run ~program ~policy m] inlines call sites in [m] as decided by the
    policy.  [hot_site] (adaptive scenario) selects the call sites whose
    {!Policy.site.hot} flag is set.  [decisions], when given, collects one
    {!decision} record per examined call site; independently, every decision
    is emitted as an "inline.decision" trace event when tracing is
    enabled. *)
val run :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  ?decisions:decision Inltune_support.Vec.t ->
  program:Ir.program ->
  policy:Policy.t ->
  Ir.methd ->
  Ir.methd * stats

(** What the decision walk reads of one method: its id, its static size
    ({!Inltune_jir.Size.of_method}) and the callee ids of its direct [Call]
    instructions, in the order {!run} reaches them. *)
type shape = {
  s_mid : Ir.mid;
  s_size : int;
  s_calls : Ir.mid array;
}

val shape : Ir.methd -> shape

(** A program's shapes, indexed by method id.  Build it once per program;
    every walk over the program can share it. *)
type index = shape array

val index : Ir.program -> index

(** [walk ~index ~policy root] runs only the decision procedure — no code is
    built, nothing is executed — and returns the inlining plan of the method
    whose shape is [root]: one '1'/'0' per policy-decided call site, in the
    exact order {!run} decides them (accepted callees are descended into
    depth-first through their shapes in [index]; recursion-guarded sites are
    policy-independent and contribute no bit; {!max_expanded_size} overrides
    acceptances the same way).  [root] need not be in [index] (a
    constant-propagated method walks from its own shape while its callees
    keep their original bodies, as in {!run}).  The plan fully determines
    the transformed code, so equal plans imply identical compilation — the
    semantic cache key fitness caching relies on.  Costs O(decisions). *)
val walk :
  ?hot_site:(site_owner:Ir.mid -> callee:Ir.mid -> bool) ->
  index:index ->
  policy:Policy.t ->
  shape ->
  string
