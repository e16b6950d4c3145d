(** Persistent worker-domain pool with chunked work-stealing.

    Intended for pure, CPU-bound work items (e.g. GA fitness evaluations).
    Work functions must not share mutable state across items.

    One set of worker domains lives for the whole process (or per explicit
    {!create}) and is fed batches through {!submit}/{!await}; indices are
    claimed in chunks off a shared atomic cursor, so finishing early on cheap
    items means stealing the next chunk of the grid rather than idling.  The
    legacy {!map}/{!map_result}/{!mapi} are wrappers over a shared default
    pool and keep their original semantics exactly. *)

(** Raised by {!map}/{!mapi} when any work item raised; carries the lowest
    failing input index and that item's exception. *)
exception Worker_failure of int * exn

(** Recorded (never raised) by {!map_result}/{!submit} for items whose
    evaluation overran the [deadline_s] budget; carries the elapsed seconds.
    Domains cannot be interrupted, so the deadline is cooperative: the item
    runs to completion and its late result is discarded. *)
exception Deadline_exceeded of float

(** Recorded (never raised) for items of a batch that was cancelled — via
    {!cancel} or the batch's [cancelled] hook — before they started.
    Cancellation is cooperative at chunk granularity: items already running
    finish normally; items not yet claimed are skipped without executing. *)
exception Cancelled

(** Number of worker domains used by default (bounded, >= 1). *)
val default_domains : unit -> int

(** [set_default_domains n] overrides {!default_domains} process-wide
    (clamped to >= 1).  The CLI's [--domains] flag calls this once at
    startup, before the shared pool exists, so every evaluation path —
    including ones that never thread an explicit [?domains] — is bounded
    uniformly. *)
val set_default_domains : int -> unit

(** Monotonic-ish process clock, in seconds: a high-water mark over the wall
    clock, so elapsed times measured across an NTP step can stall but never
    go negative.  All deadline accounting in this module uses it. *)
val now : unit -> float

(** {1 Persistent pool} *)

(** A pool of worker domains.  Thread-safe; any domain may submit. *)
type t

(** A submitted batch whose results can be collected with {!await}. *)
type 'a task

(** [create ?domains ()] spawns a pool with that many worker domains
    (default {!default_domains}).  The submitting caller additionally
    participates in every batch it {!await}s, so total parallelism is
    [domains + 1]. *)
val create : ?domains:int -> unit -> t

(** [submit pool f input] publishes a batch; workers start on it
    immediately.  [chunk] is the number of indices claimed per steal
    (default: adaptive, 1 for small batches).  [max_workers], when given,
    caps total participants — the submitting caller plus at most
    [max_workers - 1] pool workers ([max_workers = 1] means the batch runs
    entirely on the caller inside {!await}).  [priority] batches are claimed
    ahead of older bulk work (the serve daemon marks interactive requests so
    a long tuning batch cannot starve them).  [cancelled] is polled at every
    chunk claim; once it returns [true], remaining unstarted items complete
    immediately as [Error Cancelled] — the cooperative-cancellation hook
    deadlines and shutdown drain are built on.  Each item's outcome is
    isolated exactly as in {!map_result}. *)
val submit :
  t ->
  ?chunk:int ->
  ?max_workers:int ->
  ?deadline_s:float ->
  ?priority:bool ->
  ?cancelled:(unit -> bool) ->
  ('a -> 'b) ->
  'a array ->
  ('b, exn) result task

(** Cancel a batch's unstarted items: every index not yet claimed resolves
    to [Error Cancelled] without running.  Items already executing finish
    normally (domains cannot be interrupted).  {!await} must still be called
    to collect the results.  Idempotent. *)
val cancel : 'a task -> unit

(** [await task] participates in the batch until no work is left, blocks for
    stragglers, and returns the results in input order.  Must be called
    exactly once per task to observe the results; safe even after
    {!shutdown} (the caller then evaluates every remaining item itself). *)
val await : 'a task -> 'a array

(** Stop and join the pool's workers.  Pending batches are drained first.
    Idempotent and safe to call concurrently from several domains: exactly
    one caller performs the join, every other caller blocks until it has
    completed, so returning always means no worker domain is still running.
    Must not be called from one of the pool's own workers.  Submitting to a
    stopped pool is allowed — its batches are simply evaluated by the caller
    inside {!await}. *)
val shutdown : t -> unit

(** The lazily created process-wide pool used by {!map}/{!map_result}
    (shut down automatically at exit). *)
val get_default : unit -> t

(** [set_counter_hook f] routes the pool's observability counters through
    [f name delta]: ["pool.tasks_stolen"] (grid indices executed by a
    non-submitting worker), ["pool.busy_ns"] (wall time workers spent
    running stolen chunks), ["pool.idle_ns"] (wall time workers spent
    parked while no batch was queued — the starvation signal; a worker
    parked because every queued batch is at its participant cap is not
    counted) and
    ["pool.tasks_cancelled"] (indices resolved as {!Cancelled} without
    running).  [lib/support] cannot
    depend on the metrics registry, so [Inltune_obs] installs the bridge at
    load time. *)
val set_counter_hook : (string -> int -> unit) -> unit

(** {1 Array map wrappers} *)

(** [map_result ?domains ?deadline_s f a] evaluates every item and returns
    its outcome in input order: [Ok (f a.(i))], or [Error e] if that item
    raised (or overran [deadline_s]).  One bad item never aborts the batch —
    this is the fault-isolation primitive the GA's guarded evaluation uses.
    [domains] caps total participating domains; [Some 1] runs strictly
    sequentially on the caller. *)
val map_result :
  ?domains:int -> ?deadline_s:float -> ('a -> 'b) -> 'a array -> ('b, exn) result array

(** [map ?domains f a] is [Array.map f a] computed in parallel.  Result order
    matches input order.  If any application of [f] raises, every other item
    still completes and exactly one [Worker_failure] is raised on the caller,
    carrying the lowest failing index. *)
val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

(** Indexed variant of {!map}. *)
val mapi : ?domains:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
