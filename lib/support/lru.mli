(** A weight-bounded least-recently-used map.  Every entry carries a
    non-negative weight; adding an entry evicts least-recently-used ones
    until the total weight fits the budget again.  Not thread-safe: callers
    that share one map across domains or threads hold their own lock. *)

type ('k, 'v) t

(** Empty map holding at most [budget] total weight. *)
val create : budget:int -> unit -> ('k, 'v) t

(** The value under the key, marking it most recently used. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [add t k v ~weight] inserts [k] as the most recently used entry and
    returns how many entries it evicted.  An existing binding of [k] is kept
    (and refreshed); an entry heavier than the whole budget is not
    admitted. *)
val add : ('k, 'v) t -> 'k -> 'v -> weight:int -> int

(** Total weight of the entries held. *)
val weight : ('k, 'v) t -> int

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit
