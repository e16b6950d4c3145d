(** Direct-mapped instruction-cache simulator.

    The representation is exposed so the flat interpreter can fold the
    per-instruction tag probe into its dispatch loop ({!access} is one call
    per simulated instruction, which dominates its cost).  Treat the fields
    as read-only outside this module and [Machine]. *)

type t = {
  tags : int array;  (** -1 = invalid *)
  first : int array;
      (** per set, the line installed by the set's first miss (the one that
          found it invalid), -1 for a set never touched.  Later misses never
          overwrite it.  With [tags] this is all a steady-state replay needs
          to know about the cache (see [Machine.replay_iteration]). *)
  line_bits : int;
  index_mask : int;
  mutable accesses : int;
  mutable misses : int;
}

(** [create ~bytes ~line_bytes] — both must make the line count a power of
    two. *)
val create : bytes:int -> line_bytes:int -> t

(** [access t addr] touches the line containing [addr]; true means miss.
    A miss into an invalid set also records the line in [first]. *)
val access : t -> int -> bool

val miss_rate : t -> float
val reset_counters : t -> unit
val accesses : t -> int
val misses : t -> int

(** Calibrated host wall-clock cost of one {!access} call in nanoseconds
    (lazily measured once on a scratch cache).  Used by the profiler to
    estimate the icache model's share of simulation time; never feeds back
    into simulated cycle counts. *)
val ns_per_access : unit -> float
