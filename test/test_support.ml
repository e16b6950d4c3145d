module Rng = Inltune_support.Rng
module Stats = Inltune_support.Stats
module Vec = Inltune_support.Vec
module Table = Inltune_support.Table
module Pool = Inltune_support.Pool
module Lru = Inltune_support.Lru

let check_float = Alcotest.(check (float 1e-9))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_range_bounds () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let v = Rng.range r (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_rng_range_singleton () =
  let r = Rng.create 5 in
  Alcotest.(check int) "lo=hi" 9 (Rng.range r 9 9)

let test_rng_invalid () =
  let r = Rng.create 6 in
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Rng.range: empty range") (fun () ->
      ignore (Rng.range r 3 2))

let test_rng_float_bounds () =
  let r = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_split_independent () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  Alcotest.(check bool) "split differs from parent" true (Rng.next_int64 a <> Rng.next_int64 b)

let test_rng_copy () =
  let a = Rng.create 10 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a) (Rng.next_int64 b)

let test_rng_chance_extremes () =
  let r = Rng.create 11 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.chance r 1.0);
    Alcotest.(check bool) "p=0 always false" false (Rng.chance r 0.0)
  done

let test_rng_shuffle_permutation () =
  let r = Rng.create 12 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

(* --- Stats --- *)

let test_mean () = check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |])

let test_geomean () =
  check_float "geomean of 2,8" 4.0 (Stats.geomean [| 2.0; 8.0 |]);
  check_float "geomean of identical" 3.0 (Stats.geomean [| 3.0; 3.0; 3.0 |])

let test_geomean_rejects_nonpositive () =
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive") (fun () ->
      ignore (Stats.geomean [| 1.0; 0.0 |]))

let test_geomean_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty") (fun () ->
      ignore (Stats.geomean [||]))

let test_min_max () =
  check_float "min" 1.0 (Stats.min_of [| 3.0; 1.0; 2.0 |]);
  check_float "max" 3.0 (Stats.max_of [| 3.0; 1.0; 2.0 |])

let test_stddev () =
  check_float "constant array" 0.0 (Stats.stddev [| 5.0; 5.0; 5.0 |]);
  check_float "spread" 2.0 (Stats.stddev [| 2.0; 6.0 |])

let test_reduction_pct () =
  check_float "17% reduction" 17.0 (Stats.reduction_pct 0.83);
  check_float "no change" 0.0 (Stats.reduction_pct 1.0)

let test_ratio () =
  check_float "ratio" 0.5 (Stats.ratio ~baseline:4.0 2.0);
  Alcotest.check_raises "zero baseline"
    (Invalid_argument "Stats.ratio: non-positive baseline") (fun () ->
      ignore (Stats.ratio ~baseline:0.0 1.0))

let test_percentile () =
  let xs = [| 30.0; 10.0; 50.0; 20.0; 40.0 |] in
  (* Nearest-rank: always an actual sample, never an interpolation. *)
  check_float "p0 = min" 10.0 (Stats.percentile xs 0.0);
  check_float "p50 = median" 30.0 (Stats.percentile xs 50.0);
  check_float "p90" 50.0 (Stats.percentile xs 90.0);
  check_float "p100 = max" 50.0 (Stats.percentile xs 100.0);
  check_float "singleton" 7.0 (Stats.percentile [| 7.0 |] 99.0);
  (* Input order must not matter, and the input must not be mutated. *)
  check_float "unsorted input" 20.0 (Stats.percentile xs 40.0);
  Alcotest.(check bool) "input untouched" true (xs = [| 30.0; 10.0; 50.0; 20.0; 40.0 |])

let test_percentile_rejects_bad_input () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (Stats.percentile [| 1.0 |] 101.0));
  Alcotest.check_raises "nan p" (Invalid_argument "Stats.percentile: p outside [0, 100]")
    (fun () -> ignore (Stats.percentile [| 1.0 |] nan))

(* --- Vec --- *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 7" 49 (Vec.get v 7);
  Alcotest.(check int) "last" (99 * 99) (Vec.last v)

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check int) "pop" 3 (Vec.pop v);
  Alcotest.(check int) "length after pop" 2 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.of_array [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: out of bounds") (fun () ->
      Vec.set v (-1) 0)

let test_vec_roundtrip () =
  let a = Array.init 37 (fun i -> i * 3) in
  Alcotest.(check (array int)) "roundtrip" a (Vec.to_array (Vec.of_array a))

let test_vec_append () =
  let a = Vec.of_array [| 1; 2 |] and b = Vec.of_array [| 3; 4 |] in
  Vec.append a b;
  Alcotest.(check (array int)) "append" [| 1; 2; 3; 4 |] (Vec.to_array a)

let test_vec_fold_iter () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  let count = ref 0 in
  Vec.iteri (fun i x -> count := !count + i + x) v;
  Alcotest.(check int) "iteri" (0 + 1 + 2 + 3 + 10) !count

let test_vec_clear () =
  let v = Vec.of_array [| 1; 2 |] in
  Vec.clear v;
  Alcotest.(check bool) "empty after clear" true (Vec.is_empty v)

(* --- Table --- *)

let test_table_renders () =
  let t =
    Table.create ~title:"T" ~header:[| "a"; "b" |] ~aligns:[| Table.Left; Table.Right |]
  in
  Table.add_row t [| "x"; "1" |];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 &&
      (let rec has i = i >= 0 && (l.[i] = 'x' || has (i-1)) in has (String.length l - 1))))

let test_table_arity_checked () =
  let t = Table.create ~title:"T" ~header:[| "a" |] ~aligns:[| Table.Left |] in
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.add_row: wrong arity") (fun () ->
      Table.add_row t [| "x"; "y" |])

let test_table_bar_midpoint () =
  let b = Table.bar ~width:40 1.0 in
  Alcotest.(check int) "bar width" 40 (String.length b);
  Alcotest.(check char) "baseline mark" '|' b.[20]

(* --- Pool --- *)

let test_pool_matches_sequential () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "parallel = sequential" (Array.map f input)
    (Pool.map ~domains:4 f input)

let test_pool_empty () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map (fun x -> x) [||])

let test_pool_single_domain () =
  let input = [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "domains:1" [| 2; 4; 6 |]
    (Pool.map ~domains:1 (fun x -> 2 * x) input)

let test_pool_propagates_exception () =
  let raised =
    try
      ignore (Pool.map ~domains:2 (fun x -> if x = 13 then failwith "boom" else x)
                (Array.init 64 (fun i -> i)));
      false
    with Pool.Worker_failure _ -> true
  in
  Alcotest.(check bool) "Worker_failure raised" true raised

let test_pool_order_preserved () =
  let input = Array.init 200 (fun i -> 200 - i) in
  let out = Pool.map ~domains:2 (fun x -> -x) input in
  Array.iteri (fun i x -> Alcotest.(check int) "order" (-(200 - i)) x) out

let test_pool_mapi () =
  let out = Pool.mapi ~domains:2 (fun i x -> i + x) [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "mapi" [| 10; 21; 32 |] out

let test_pool_map_result_isolates () =
  let input = Array.init 64 (fun i -> i) in
  let out =
    Pool.map_result ~domains:2 (fun x -> if x = 13 then failwith "boom" else 2 * x) input
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "survivor" (2 * i) y
      | Error (Failure m) ->
        Alcotest.(check int) "only index 13 fails" 13 i;
        Alcotest.(check string) "failure carried" "boom" m
      | Error e -> Alcotest.failf "unexpected error at %d: %s" i (Printexc.to_string e))
    out

let test_pool_worker_failure_index () =
  (* map reports the lowest failing index, whatever domain hit it. *)
  let idx =
    try
      ignore
        (Pool.map ~domains:4
           (fun x -> if x mod 20 = 17 then failwith "boom" else x)
           (Array.init 100 (fun i -> i)));
      -1
    with Pool.Worker_failure (i, Failure _) -> i
  in
  Alcotest.(check int) "lowest failing index" 17 idx

let test_pool_now_monotonic () =
  let a = Pool.now () in
  let b = Pool.now () in
  let c = Pool.now () in
  Alcotest.(check bool) "non-decreasing" true (a <= b && b <= c);
  Alcotest.(check bool) "plausible wall clock" true (a > 0.0)

let test_pool_persistent_reuse () =
  (* One explicit pool serves many batches; workers survive between them. *)
  let pool = Pool.create ~domains:2 () in
  let f x = (3 * x) + 1 in
  for round = 1 to 5 do
    let input = Array.init (16 * round) (fun i -> i + round) in
    let out = Pool.await (Pool.submit pool f input) in
    Array.iteri
      (fun i r ->
        match r with
        | Ok y -> Alcotest.(check int) "batch value" (f input.(i)) y
        | Error e -> Alcotest.failf "round %d item %d: %s" round i (Printexc.to_string e))
      out
  done;
  Pool.shutdown pool

let test_pool_drains_after_failure () =
  (* A failing batch must not wedge the pool: every item's outcome is
     recorded, and the same pool keeps serving later batches. *)
  let pool = Pool.create ~domains:2 () in
  let bad = Pool.await (Pool.submit pool (fun x -> if x mod 7 = 3 then failwith "boom" else x)
                          (Array.init 50 (fun i -> i))) in
  Array.iteri
    (fun i r ->
      match (r, i mod 7 = 3) with
      | Ok y, false -> Alcotest.(check int) "survivor" i y
      | Error (Failure _), true -> ()
      | Ok _, true -> Alcotest.failf "item %d should have failed" i
      | Error e, _ -> Alcotest.failf "unexpected error at %d: %s" i (Printexc.to_string e))
    bad;
  let ok = Pool.await (Pool.submit pool (fun x -> x * x) (Array.init 20 (fun i -> i))) in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "pool still usable" (i * i) y
      | Error e -> Alcotest.failf "post-failure item %d: %s" i (Printexc.to_string e))
    ok;
  Pool.shutdown pool

let test_pool_submit_after_shutdown () =
  (* A stopped pool degrades to caller-only evaluation instead of hanging. *)
  let pool = Pool.create ~domains:1 () in
  Pool.shutdown pool;
  let out = Pool.await (Pool.submit pool (fun x -> x + 1) [| 1; 2; 3 |]) in
  Alcotest.(check (array int)) "caller evaluates" [| 2; 3; 4 |]
    (Array.map (function Ok y -> y | Error _ -> -1) out)

let test_pool_max_workers_one () =
  (* max_workers:1 keeps everything on the submitting domain. *)
  let pool = Pool.create ~domains:2 () in
  let self = Domain.self () in
  let out =
    Pool.await
      (Pool.submit pool ~max_workers:1 (fun _ -> Domain.self () = self)
         (Array.init 30 (fun i -> i)))
  in
  Array.iter
    (function
      | Ok ran_on_caller -> Alcotest.(check bool) "ran on caller" true ran_on_caller
      | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))
    out;
  Pool.shutdown pool

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.await (Pool.submit pool (fun x -> x + 1) [| 1; 2 |]));
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Still usable after repeated shutdowns: the caller evaluates. *)
  let out = Pool.await (Pool.submit pool (fun x -> x * 2) [| 3 |]) in
  Alcotest.(check bool) "caller evaluates" true (out.(0) = Ok 6)

let test_pool_shutdown_concurrent_domains () =
  (* Several domains race to shut the same pool down: exactly one performs
     the join, the rest block until it finishes, and every caller returns
     only once no worker domain is running.  (A second join of the same
     domain would crash — this is the regression test for that.) *)
  let pool = Pool.create ~domains:2 () in
  ignore (Pool.await (Pool.submit pool (fun x -> x) (Array.init 32 Fun.id)));
  let racers = Array.init 4 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool)) in
  Array.iter Domain.join racers;
  Pool.shutdown pool;
  let out = Pool.await (Pool.submit pool (fun x -> x + 1) [| 41 |]) in
  Alcotest.(check bool) "drained pool still answers" true (out.(0) = Ok 42)

let test_pool_cancel_skips_unstarted () =
  (* max_workers:1 keeps every item unclaimed until await, so cancelling
     first deterministically skips the whole batch without running it. *)
  let pool = Pool.create ~domains:2 () in
  let ran = Atomic.make 0 in
  let task =
    Pool.submit pool ~max_workers:1
      (fun x -> Atomic.incr ran; x)
      (Array.init 10 Fun.id)
  in
  Pool.cancel task;
  Pool.cancel task;
  (* idempotent *)
  let out = Pool.await task in
  Array.iter
    (function
      | Error Pool.Cancelled -> ()
      | Ok _ -> Alcotest.fail "cancelled item executed"
      | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))
    out;
  Alcotest.(check int) "nothing executed" 0 (Atomic.get ran);
  Pool.shutdown pool

let test_pool_cancelled_hook () =
  (* The cooperative hook the serve daemon's deadlines are built on: once it
     reports true, unclaimed items resolve as Cancelled without running. *)
  let pool = Pool.create ~domains:2 () in
  let task =
    Pool.submit pool ~max_workers:1
      ~cancelled:(fun () -> true)
      (fun x -> x) (Array.init 8 Fun.id)
  in
  let out = Pool.await task in
  Array.iter
    (function
      | Error Pool.Cancelled -> ()
      | r ->
        Alcotest.failf "expected Cancelled, got %s"
          (match r with Ok _ -> "Ok" | Error e -> Printexc.to_string e))
    out;
  Pool.shutdown pool

let test_pool_priority_batch_completes () =
  (* A priority batch submitted behind a bulk batch still completes with
     correct per-item results (ordering itself is a scheduling property; this
     pins down that the priority path never corrupts or drops outcomes). *)
  let pool = Pool.create ~domains:2 () in
  let bulk = Pool.submit pool (fun x -> x * x) (Array.init 200 Fun.id) in
  let pri = Pool.submit pool ~priority:true (fun x -> -x) (Array.init 20 Fun.id) in
  let pout = Pool.await pri in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "priority result" (-i) y
      | Error e -> Alcotest.failf "priority item %d: %s" i (Printexc.to_string e))
    pout;
  let bout = Pool.await bulk in
  Array.iteri
    (fun i r ->
      match r with
      | Ok y -> Alcotest.(check int) "bulk result" (i * i) y
      | Error e -> Alcotest.failf "bulk item %d: %s" i (Printexc.to_string e))
    bout;
  Pool.shutdown pool

(* --- Lru --- *)

let test_lru_evicts_least_recent () =
  let t = Lru.create ~budget:10 () in
  Alcotest.(check int) "a fits" 0 (Lru.add t "a" 1 ~weight:4);
  Alcotest.(check int) "b fits" 0 (Lru.add t "b" 2 ~weight:4);
  (* Touching a makes b the eviction candidate. *)
  Alcotest.(check (option int)) "a found" (Some 1) (Lru.find t "a");
  Alcotest.(check int) "c evicts one" 1 (Lru.add t "c" 3 ~weight:4);
  Alcotest.(check (option int)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find t "a");
  Alcotest.(check int) "weight" 8 (Lru.weight t);
  Alcotest.(check int) "heavy entry evicts both" 2 (Lru.add t "d" 4 ~weight:10);
  Alcotest.(check int) "one entry" 1 (Lru.length t)

let test_lru_keeps_first_binding () =
  let t = Lru.create ~budget:10 () in
  ignore (Lru.add t "a" 1 ~weight:3);
  Alcotest.(check int) "re-add evicts nothing" 0 (Lru.add t "a" 2 ~weight:3);
  Alcotest.(check (option int)) "first value kept" (Some 1) (Lru.find t "a");
  Alcotest.(check int) "weight counted once" 3 (Lru.weight t);
  Alcotest.(check int) "over-budget entry refused" 0 (Lru.add t "z" 9 ~weight:11);
  Alcotest.(check (option int)) "not admitted" None (Lru.find t "z");
  Lru.clear t;
  Alcotest.(check int) "cleared" 0 (Lru.length t + Lru.weight t);
  ignore (Lru.add t "b" 1 ~weight:1);
  Alcotest.(check (option int)) "usable after clear" (Some 1) (Lru.find t "b")

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed sensitivity", `Quick, test_rng_seed_sensitivity);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng range bounds", `Quick, test_rng_range_bounds);
    ("rng range singleton", `Quick, test_rng_range_singleton);
    ("rng invalid args", `Quick, test_rng_invalid);
    ("rng float bounds", `Quick, test_rng_float_bounds);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("rng copy", `Quick, test_rng_copy);
    ("rng chance extremes", `Quick, test_rng_chance_extremes);
    ("rng shuffle is a permutation", `Quick, test_rng_shuffle_permutation);
    ("stats mean", `Quick, test_mean);
    ("stats geomean", `Quick, test_geomean);
    ("stats geomean rejects non-positive", `Quick, test_geomean_rejects_nonpositive);
    ("stats geomean empty", `Quick, test_geomean_empty);
    ("stats min/max", `Quick, test_min_max);
    ("stats stddev", `Quick, test_stddev);
    ("stats reduction pct", `Quick, test_reduction_pct);
    ("stats ratio", `Quick, test_ratio);
    ("stats percentile", `Quick, test_percentile);
    ("stats percentile rejects bad input", `Quick, test_percentile_rejects_bad_input);
    ("vec push/get", `Quick, test_vec_push_get);
    ("vec pop", `Quick, test_vec_pop);
    ("vec bounds checked", `Quick, test_vec_bounds);
    ("vec roundtrip", `Quick, test_vec_roundtrip);
    ("vec append", `Quick, test_vec_append);
    ("vec fold/iteri", `Quick, test_vec_fold_iter);
    ("vec clear", `Quick, test_vec_clear);
    ("table renders", `Quick, test_table_renders);
    ("table arity checked", `Quick, test_table_arity_checked);
    ("table bar midpoint", `Quick, test_table_bar_midpoint);
    ("pool matches sequential", `Quick, test_pool_matches_sequential);
    ("pool empty", `Quick, test_pool_empty);
    ("pool single domain", `Quick, test_pool_single_domain);
    ("pool propagates exceptions", `Quick, test_pool_propagates_exception);
    ("pool preserves order", `Quick, test_pool_order_preserved);
    ("pool mapi", `Quick, test_pool_mapi);
    ("pool map_result isolates failures", `Quick, test_pool_map_result_isolates);
    ("pool worker failure index", `Quick, test_pool_worker_failure_index);
    ("pool now monotonic", `Quick, test_pool_now_monotonic);
    ("pool persistent across batches", `Quick, test_pool_persistent_reuse);
    ("pool drains after worker failure", `Quick, test_pool_drains_after_failure);
    ("pool submit after shutdown", `Quick, test_pool_submit_after_shutdown);
    ("pool max_workers one", `Quick, test_pool_max_workers_one);
    ("pool shutdown idempotent", `Quick, test_pool_shutdown_idempotent);
    ("pool shutdown concurrent domains", `Quick, test_pool_shutdown_concurrent_domains);
    ("pool cancel skips unstarted", `Quick, test_pool_cancel_skips_unstarted);
    ("pool cancelled hook", `Quick, test_pool_cancelled_hook);
    ("pool priority batch completes", `Quick, test_pool_priority_batch_completes);
    ("lru evicts least recent", `Quick, test_lru_evicts_least_recent);
    ("lru keeps first binding", `Quick, test_lru_keeps_first_binding);
  ]
