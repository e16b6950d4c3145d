(* Direct-mapped instruction-cache simulator.

   The interpreter touches the cache once per simulated instruction with the
   instruction's code address; a tag mismatch is a miss and costs the
   platform's miss penalty.  This is the mechanism that makes over-aggressive
   inlining *hurt* running time: bloated hot code stops fitting and the depth
   sweeps of Fig. 2 turn non-monotonic. *)

type t = {
  tags : int array;     (* -1 = invalid *)
  first : int array;
      (* per set, the line installed by its first miss (the miss that found
         the set invalid); -1 while the set was never touched *)
  line_bits : int;
  index_mask : int;
  mutable accesses : int;
  mutable misses : int;
}

let log2 n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

let create ~bytes ~line_bytes =
  if bytes <= 0 || line_bytes <= 0 then invalid_arg "Icache.create";
  if line_bytes land (line_bytes - 1) <> 0 then invalid_arg "Icache.create: line size not a power of two";
  let nlines = max 1 (bytes / line_bytes) in
  if nlines land (nlines - 1) <> 0 then invalid_arg "Icache.create: line count not a power of two";
  {
    tags = Array.make nlines (-1);
    first = Array.make nlines (-1);
    line_bits = log2 line_bytes;
    index_mask = nlines - 1;
    accesses = 0;
    misses = 0;
  }

(* Returns true on a miss (and installs the line). *)
let access t addr =
  t.accesses <- t.accesses + 1;
  let line = addr lsr t.line_bits in
  let idx = line land t.index_mask in
  let old = t.tags.(idx) in
  if old = line then false
  else begin
    if old < 0 then t.first.(idx) <- line;
    t.tags.(idx) <- line;
    t.misses <- t.misses + 1;
    true
  end

let miss_rate t =
  if t.accesses = 0 then 0.0 else Float.of_int t.misses /. Float.of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let accesses t = t.accesses
let misses t = t.misses

(* Calibrated host cost of one [access] call, for the profiler's breakdown
   of where simulation wall time goes.  Lazily measured on a scratch cache;
   a racing double calibration is harmless (both writes are close enough).
   Timed with the monotonic Pool clock — a wall-clock step (NTP, DST) during
   calibration would otherwise bake a garbage per-access cost into every
   breakdown for the life of the process.  Profiler bookkeeping only — this
   never feeds back into simulated cycles. *)
let calibrated_ns = Atomic.make Float.nan

let ns_per_access () =
  let v = Atomic.get calibrated_ns in
  if Float.is_finite v then v
  else begin
    let scratch = create ~bytes:16384 ~line_bytes:64 in
    let reps = 200_000 in
    let t0 = Inltune_support.Pool.now () in
    for i = 0 to reps - 1 do
      ignore (access scratch (i * 48) : bool)
    done;
    let ns = (Inltune_support.Pool.now () -. t0) *. 1e9 /. Float.of_int reps in
    let ns = Float.max 0.0 ns in
    Atomic.set calibrated_ns ns;
    ns
  end
