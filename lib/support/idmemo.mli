(** A bounded, domain-safe memo keyed by physical identity: per-value data
    that is costly to derive (a program's decision-walk index, the fact
    that it validated) computed once per value and looked up in O(1).
    Holds at most [capacity] entries; the oldest is dropped first and
    rebuilt on demand. *)

module Make (K : sig
  type t
end) : sig
  type 'v t

  (** Empty memo holding at most [capacity] (positive) entries. *)
  val create : capacity:int -> 'v t

  (** [find_or_add t k build] is the value memoized for [k] itself (not for
      a structurally equal copy), or [build k], which is stored unless it
      raises.  [build] runs outside the memo's lock. *)
  val find_or_add : 'v t -> K.t -> (K.t -> 'v) -> 'v

  (** Entries held. *)
  val length : 'v t -> int
end
