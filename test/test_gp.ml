open Inltune_opt
open Inltune_vm
module W = Inltune_workloads
module Rng = Inltune_support.Rng
module Gp = Inltune_gp
module Tree = Gp.Tree
module E = Inltune_ga.Evolve
module Features = Inltune_policy.Features
module Dataset = Inltune_policy.Dataset
module Fitcache = Inltune_core.Fitcache
module Measure = Inltune_core.Measure
module Objective = Inltune_core.Objective
module Metric = Inltune_obs.Metric

let dim = Features.dim

(* Feature vector long enough for any index a test tree mentions. *)
let vec l = Array.append (Array.of_list l) (Array.make dim 0.0)

(* --- Tree: evaluation semantics ------------------------------------------ *)

let test_eval_semantics () =
  let open Tree in
  let x = vec [ 3.0; 10.0 ] in
  Alcotest.(check bool) "true" true (eval True x);
  Alcotest.(check bool) "false" false (eval False x);
  Alcotest.(check bool) "le holds" true (eval (Cmp (Le, Feat 0, Feat 1)) x);
  Alcotest.(check bool) "le on equal" true (eval (Cmp (Le, Feat 0, Const 3.0)) x);
  Alcotest.(check bool) "gt strict" false (eval (Cmp (Gt, Feat 0, Const 3.0)) x);
  Alcotest.(check bool) "and" false (eval (And (True, False)) x);
  Alcotest.(check bool) "or" true (eval (Or (True, False)) x);
  Alcotest.(check bool) "not" true (eval (Not False) x);
  (* arithmetic: (3 + 10) * 2 = 26 > 25 *)
  Alcotest.(check bool) "arith" true
    (eval (Cmp (Gt, Arith (Mul, Arith (Add, Feat 0, Feat 1), Const 2.0), Const 25.0)) x)

let test_eval_protected_div () =
  let open Tree in
  (* x/0 is protected: returns the dividend, so 10/0 = 10 > 5. *)
  let t = Cmp (Gt, Arith (Div, Feat 1, Const 0.0), Const 5.0) in
  let x = vec [ 3.0; 10.0 ] in
  Alcotest.(check bool) "div by zero yields dividend" true (eval t x);
  (* evaluation stays finite on any well-formed tree *)
  for seed = 1 to 50 do
    let t = Gp.Genetic.random (Rng.create seed) in
    ignore (eval t (vec [ 1.0; 2.0; 3.0 ]))
  done

(* --- Tree: clamping (satellite: decode clamping) ------------------------- *)

let test_clamp_constants () =
  let open Tree in
  let c = clamp (Cmp (Le, Const 1e9, Const (-3.0))) in
  Alcotest.(check bool) "out-of-range constants clamp to bounds" true
    (c = Cmp (Le, Const const_hi, Const const_lo));
  let n = clamp (Cmp (Gt, Const Float.nan, Const Float.infinity)) in
  Alcotest.(check bool) "non-finite constants become const_lo / clamp" true
    (n = Cmp (Gt, Const const_lo, Const const_hi))

let test_clamp_depth () =
  let open Tree in
  (* 12 nested Nots around a Cmp: far past max_depth. *)
  let deep = ref (Cmp (Le, Feat 0, Const 1.0)) in
  for _ = 1 to 12 do
    deep := Not !deep
  done;
  let c = clamp !deep in
  Alcotest.(check bool) "pruned within depth cap" true (depth c <= max_depth);
  Alcotest.(check bool) "well formed after prune" true (well_formed ~dim c);
  (* an over-deep numeric chain collapses to its leftmost leaf *)
  let num = ref (Feat 0) in
  for _ = 1 to 12 do
    num := Arith (Add, !num, Const 1.0)
  done;
  let cn = clamp (Cmp (Le, !num, Const 2.0)) in
  Alcotest.(check bool) "numeric chain pruned" true (depth cn <= max_depth);
  Alcotest.(check bool) "numeric prune well formed" true (well_formed ~dim cn)

let test_clamp_deterministic_idempotent () =
  for seed = 1 to 100 do
    let rng = Rng.create seed in
    (* build arbitrary (possibly ill-formed) trees by growing then injecting
       a bad constant *)
    let t = Gp.Genetic.random rng in
    let t =
      if Gp.Genetic.count_const t > 0 then
        Gp.Genetic.replace_const t 0 (Float.of_int seed *. 1e7)
      else t
    in
    let a = Tree.clamp t and b = Tree.clamp t in
    Alcotest.(check bool) "clamp deterministic" true (a = b);
    Alcotest.(check bool) "clamp idempotent" true (Tree.clamp a = a);
    Alcotest.(check bool) "clamp establishes invariant" true (Tree.well_formed ~dim a)
  done

(* --- Tree: canonical text form (satellite: round-trip property) ---------- *)

let round_trip_prop =
  QCheck.Test.make ~count:200 ~name:"gp tree: parse∘print = id, digest stable"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let t = Gp.Genetic.random (Rng.create seed) in
      match Tree.of_string ~dim (Tree.to_string t) with
      | Error e -> QCheck.Test.fail_report e
      | Ok t' -> t' = t && Tree.digest t' = Tree.digest t && Tree.well_formed ~dim t')

let test_print_fixpoint () =
  (* printing a parsed tree reproduces the input byte-for-byte (the `gp
     print | cmp` CI check, in-process) *)
  for seed = 1 to 30 do
    let s = Tree.to_string (Gp.Genetic.random (Rng.create seed)) in
    match Tree.of_string ~dim s with
    | Error e -> Alcotest.fail e
    | Ok t -> Alcotest.(check string) "fixpoint" s (Tree.to_string t)
  done

let check_error name prefix = function
  | Ok _ -> Alcotest.failf "%s: expected a parse error" name
  | Error e ->
    let ok =
      String.length e >= String.length prefix
      && String.sub e 0 (String.length prefix) = prefix
    in
    if not ok then Alcotest.failf "%s: error %S does not start with %S" name e prefix

let test_parse_errors () =
  check_error "bad header" "line 1:" (Tree.of_string ~dim "inltune-gp v9\ntrue\n");
  check_error "missing expression" "line 2: missing expression"
    (Tree.of_string ~dim "inltune-gp v1\n");
  check_error "trailing garbage" "line 3: trailing garbage"
    (Tree.of_string ~dim "inltune-gp v1\ntrue\ntrue\n");
  check_error "unknown operator" "line 2: token" (Tree.of_string ~dim "inltune-gp v1\n(xor true false)\n");
  check_error "unbalanced" "line 2: token" (Tree.of_string ~dim "inltune-gp v1\n(and true\n");
  check_error "feature index out of range" "token"
    (Tree.of_text ~dim (Printf.sprintf "(le (feat %d) (const 1))" dim));
  check_error "non-finite constant" "token" (Tree.of_text ~dim "(le (const inf) (const 1))");
  check_error "trailing tokens" "token" (Tree.of_text ~dim "true false")

(* --- Genetic operators ---------------------------------------------------- *)

let test_random_well_formed () =
  for seed = 1 to 200 do
    let t = Gp.Genetic.random (Rng.create seed) in
    Alcotest.(check bool) "well formed" true (Tree.well_formed ~dim t);
    Alcotest.(check bool) "within size cap" true (Tree.size t <= Tree.max_size)
  done

let test_random_deterministic () =
  let pop seed = List.init 20 (fun i -> Gp.Genetic.random (Rng.create (seed + i))) in
  Alcotest.(check bool) "same seed, same population" true (pop 7 = pop 7);
  Alcotest.(check bool) "different seeds diverge somewhere" true (pop 7 <> pop 1007)

let test_operators_deterministic_and_closed () =
  let a = Gp.Genetic.random (Rng.create 1) and b = Gp.Genetic.random (Rng.create 2) in
  let cx seed = Gp.Genetic.crossover (Rng.create seed) a b in
  Alcotest.(check bool) "crossover deterministic" true (cx 9 = cx 9);
  let mu seed = Gp.Genetic.mutate ~prob:1.0 (Rng.create seed) a in
  Alcotest.(check bool) "mutation deterministic" true (mu 9 = mu 9);
  for seed = 1 to 100 do
    let c1, c2 = cx seed in
    let m = mu seed in
    List.iter
      (fun t ->
        Alcotest.(check bool) "offspring well formed" true (Tree.well_formed ~dim t);
        Alcotest.(check bool) "offspring within size cap" true (Tree.size t <= Tree.max_size))
      [ c1; c2; m ]
  done

let test_mutate_prob_zero_is_identity () =
  let a = Gp.Genetic.random (Rng.create 3) in
  for seed = 1 to 20 do
    Alcotest.(check bool) "prob 0 never fires" true
      (Gp.Genetic.mutate ~prob:0.0 (Rng.create seed) a = a)
  done

(* --- Decode: tree → policy ------------------------------------------------ *)

let compress = W.Suites.find "compress"

let test_decode_policy_matches_eval () =
  let prog = W.Suites.program compress in
  let ctx = Features.make_ctx prog in
  let sites = Features.of_program ctx prog in
  Alcotest.(check bool) "have sites" true (Array.length sites > 0);
  let tree = Tree.(Cmp (Le, Feat 0, Const 20.0)) in
  let p = Gp.Decode.policy ~ctx tree in
  Alcotest.(check string) "family name" "gp" p.Policy.name;
  Array.iter
    (fun (site, x) ->
      let v = p.Policy.decide site in
      Alcotest.(check bool) "verdict matches eval" (Tree.eval tree x) v.Policy.accept;
      Alcotest.(check string) "rule name"
        (if v.Policy.accept then "gp_accept" else "gp_reject")
        v.Policy.rule)
    sites;
  (* the factory ignores the live profile: same policy for any profile *)
  let f = Gp.Decode.factory ~ctx tree in
  let prof = Profile.create 4 in
  Alcotest.(check bool) "factory is static" true
    (Array.for_all
       (fun (site, _) -> ((f prof).Policy.decide site).Policy.accept
                         = (p.Policy.decide site).Policy.accept)
       sites)

let test_decode_extremes () =
  let prog = W.Suites.program compress in
  let ctx = Features.make_ctx prog in
  let sites = Features.of_program ctx prog in
  let always = Gp.Decode.policy ~ctx Tree.True in
  let never = Gp.Decode.policy ~ctx Tree.False in
  Array.iter
    (fun (site, _) ->
      Alcotest.(check bool) "True accepts" true (always.Policy.decide site).Policy.accept;
      Alcotest.(check bool) "False rejects" false (never.Policy.decide site).Policy.accept)
    sites

(* Decision-identical trees share the Opt walk signature even though their
   digests differ: (le (feat 0) (const 10)) ≡ (not (gt (feat 0) (const 10))). *)
let test_policy_signature_shared_across_identical_trees () =
  let prog = W.Suites.program compress in
  let ctx = Features.make_ctx prog in
  let t1 = Tree.(Cmp (Le, Feat 0, Const 10.0)) in
  let t2 = Tree.(Not (Cmp (Gt, Feat 0, Const 10.0))) in
  Alcotest.(check bool) "distinct digests" true (Tree.digest t1 <> Tree.digest t2);
  let sig_of t =
    Fitcache.policy_signature ~scenario:Machine.Opt ~policy:(Gp.Decode.policy ~ctx t)
      ~digest:(Tree.digest t) ~static:true ~inline_enabled:true ~plan:Plan.default prog
  in
  let s1 = sig_of t1 and s2 = sig_of t2 in
  Alcotest.(check string) "identical decisions, one signature" s1 s2;
  Alcotest.(check bool) "walk namespace" true
    (String.length s1 > 2 && String.sub s1 0 2 = "w:")

let test_static_rule_compile_cache_transparent () =
  (* A static GP rule compiles through the compiled-method cache under the
     walk Fitcache builds for it, and measures exactly as uncached. *)
  let t = Tree.(Or (Cmp (Le, Feat 0, Const 12.0), Cmp (Le, Feat 1, Const 3.0))) in
  List.iter
    (fun bm ->
      let prog = W.Suites.program bm in
      let policy = Gp.Decode.policy ~ctx:(Features.make_ctx prog) t in
      let measure ?walk () =
        Runner.measure ~iterations:2
          (Machine.config ~policy_factory:(fun _ -> policy) ?walk Machine.Opt Heuristic.default)
          Platform.x86 prog
      in
      let walk = ref None in
      Fitcache.clear ();
      let cold =
        Fitcache.lookup_or_measure_policy ~scenario:Machine.Opt ~platform:Platform.x86 ~policy
          ~digest:(Tree.digest t) ~static:true ~inline_enabled:true ~plan:Plan.default
          ~iterations:2 ~program:prog (fun w ->
            walk := w;
            measure ?walk:w ())
      in
      Fitcache.clear ();
      Alcotest.(check bool) "exact walk" true (!walk <> None);
      let hits () = Metric.value (Metric.counter "vm.compile_cache.hits") in
      let off = measure () in
      ignore (measure ?walk:!walk ());
      let h0 = hits () in
      let warm = measure ?walk:!walk () in
      Alcotest.(check bool) "warm run hits" true (hits () > h0);
      Alcotest.(check bool) "cold = uncached" true (cold = off);
      Alcotest.(check bool) "warm = uncached" true (warm = off))
    [ compress; W.Suites.find "jess" ]

let test_agreement () =
  let training =
    [|
      (vec [ 5.0 ], true);
      (vec [ 15.0 ], false);
      (vec [ 8.0 ], true);
      (vec [ 30.0 ], false);
    |]
  in
  let perfect = Tree.(Cmp (Le, Feat 0, Const 10.0)) in
  Alcotest.(check (float 1e-9)) "perfect tree" 1.0 (Gp.Decode.agreement training perfect);
  Alcotest.(check (float 1e-9)) "always-accept gets half" 0.5
    (Gp.Decode.agreement training Tree.True);
  Alcotest.(check (float 1e-9)) "empty data is vacuous" 1.0 (Gp.Decode.agreement [||] Tree.True)

(* --- Checkpoints ---------------------------------------------------------- *)

let sample_state =
  let t1 = Tree.(Cmp (Le, Feat 0, Const 10.0)) in
  let t2 = Tree.(And (True, Not (Cmp (Gt, Feat 2, Const 3.0)))) in
  {
    Gp.Ckpt.gen = 2;
    rng = 987654321098765L;
    pop = [| t1; t2; Tree.True |];
    best = Some t1;
    best_fitness = 1.0625;
    cache = [ (Tree.digest t1, 1.0625); (Tree.digest t2, 1.25) ];
    quarantine = [ "deadbeef" ];
    history =
      [
        { E.generation = 0; best_fitness = 1.5; mean_fitness = 2.25; evaluations = 3 };
        { E.generation = 1; best_fitness = 1.0625; mean_fitness = 1.75; evaluations = 6 };
      ];
    evaluations = 6;
    cache_hits = 2;
    failures = 1;
    retries = 1;
    pop_size = 3;
    seed = 7;
  }

let test_ckpt_round_trip () =
  let path = Filename.temp_file "inltune_gp_ckpt" ".jsonl" in
  Gp.Ckpt.write ~path sample_state;
  (match Gp.Ckpt.load ~path with
  | Error e -> Alcotest.fail e
  | Ok st -> Alcotest.(check bool) "round trip" true (st = sample_state));
  Sys.remove path

let test_ckpt_last_valid_line () =
  let path = Filename.temp_file "inltune_gp_ckpt2" ".jsonl" in
  Gp.Ckpt.write ~path sample_state;
  Gp.Ckpt.write ~path { sample_state with gen = 3; best_fitness = 1.03125 };
  (* simulate a mid-write kill: a truncated trailing line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"v\":1,\"gen\":4,\"rng\":\"12";
  close_out oc;
  (match Gp.Ckpt.load ~path with
  | Error e -> Alcotest.fail e
  | Ok st ->
    Alcotest.(check int) "last complete snapshot wins" 3 st.Gp.Ckpt.gen;
    Alcotest.(check (float 1e-12)) "fitness from that snapshot" 1.03125 st.Gp.Ckpt.best_fitness);
  Sys.remove path

let test_ckpt_rejects_garbage () =
  let path = Filename.temp_file "inltune_gp_ckpt3" ".jsonl" in
  let oc = open_out path in
  output_string oc "not a checkpoint\n";
  close_out oc;
  (match Gp.Ckpt.load ~path with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ());
  Sys.remove path

(* --- Evolution: determinism, resume, pre-filter --------------------------- *)

let tiny_params seed =
  { Gp.Evolve.default_params with pop_size = 4; generations = 2; seed; iterations = 2; elites = 1 }

let run_tiny ?checkpoint ?resume ?dataset seed =
  Gp.Evolve.run ?checkpoint ?resume ?dataset ~suite:[ compress ] ~scenario:Machine.Opt
    ~platform:Platform.x86 ~goal:Objective.Total ~params:(tiny_params seed) ()

let test_evolve_deterministic () =
  let a = run_tiny 11 and b = run_tiny 11 in
  Alcotest.(check string) "same best tree" (Tree.to_text a.Gp.Evolve.best)
    (Tree.to_text b.Gp.Evolve.best);
  Alcotest.(check (float 1e-12)) "same fitness" a.Gp.Evolve.best_fitness b.Gp.Evolve.best_fitness;
  Alcotest.(check bool) "same history" true (a.Gp.Evolve.history = b.Gp.Evolve.history);
  Alcotest.(check bool) "well-formed winner" true
    (Tree.well_formed ~dim a.Gp.Evolve.best)

let test_evolve_resume_bit_identical () =
  let full_ck = Filename.temp_file "inltune_gp_full" ".jsonl" in
  let part_ck = Filename.temp_file "inltune_gp_part" ".jsonl" in
  List.iter Sys.remove [ full_ck; part_ck ];
  let full =
    Gp.Evolve.run ~checkpoint:full_ck ~suite:[ compress ] ~scenario:Machine.Opt
      ~platform:Platform.x86 ~goal:Objective.Total ~params:(tiny_params 13) ()
  in
  (* interrupted run: one generation, then resume to the full budget *)
  let _ =
    Gp.Evolve.run ~checkpoint:part_ck ~suite:[ compress ] ~scenario:Machine.Opt
      ~platform:Platform.x86 ~goal:Objective.Total
      ~params:{ (tiny_params 13) with generations = 1 } ()
  in
  let resumed =
    Gp.Evolve.run ~checkpoint:part_ck ~resume:part_ck ~suite:[ compress ]
      ~scenario:Machine.Opt ~platform:Platform.x86 ~goal:Objective.Total
      ~params:(tiny_params 13) ()
  in
  Alcotest.(check string) "resume reproduces the best tree"
    (Tree.to_text full.Gp.Evolve.best) (Tree.to_text resumed.Gp.Evolve.best);
  Alcotest.(check (float 1e-17)) "and its fitness" full.Gp.Evolve.best_fitness
    resumed.Gp.Evolve.best_fitness;
  Alcotest.(check bool) "and the history" true
    (full.Gp.Evolve.history = resumed.Gp.Evolve.history);
  (* the final snapshots agree on generation, RNG stream, and population *)
  (match (Gp.Ckpt.load ~path:full_ck, Gp.Ckpt.load ~path:part_ck) with
  | Ok a, Ok b ->
    Alcotest.(check int) "same generation" a.Gp.Ckpt.gen b.Gp.Ckpt.gen;
    Alcotest.(check bool) "same rng state" true (a.Gp.Ckpt.rng = b.Gp.Ckpt.rng);
    Alcotest.(check (array string)) "same population"
      (Array.map Tree.to_text a.Gp.Ckpt.pop)
      (Array.map Tree.to_text b.Gp.Ckpt.pop)
  | Error e, _ | _, Error e -> Alcotest.fail e);
  List.iter Sys.remove [ full_ck; part_ck ]

let test_evolve_resume_rejects_mismatched_params () =
  let ck = Filename.temp_file "inltune_gp_mismatch" ".jsonl" in
  Sys.remove ck;
  let _ =
    Gp.Evolve.run ~checkpoint:ck ~suite:[ compress ] ~scenario:Machine.Opt
      ~platform:Platform.x86 ~goal:Objective.Total
      ~params:{ (tiny_params 13) with generations = 1 } ()
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match
     Gp.Evolve.run ~resume:ck ~suite:[ compress ] ~scenario:Machine.Opt
       ~platform:Platform.x86 ~goal:Objective.Total ~params:(tiny_params 14) ()
   with
  | _ -> Alcotest.fail "expected Invalid_argument on seed mismatch"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names both sides" true (contains msg "seed"));
  Sys.remove ck

let test_evolve_prefilter_counters () =
  (* a dataset every tree scores against: the pre-filter must examine every
     fresh tree from generation 1 onward and never skip more than it saw *)
  let training =
    Array.init 8 (fun i -> (vec [ Float.of_int (i * 5) ], i < 4))
  in
  let r = run_tiny ~dataset:training 17 in
  Alcotest.(check bool) "candidates counted" true (r.Gp.Evolve.prefilter_candidates >= 0);
  Alcotest.(check bool) "skips bounded by candidates" true
    (r.Gp.Evolve.prefilter_skips <= r.Gp.Evolve.prefilter_candidates);
  (* surrogate-scored trees never become the winner: the best tree always
     carries a real (simulated) fitness *)
  Alcotest.(check bool) "winner has real fitness" true
    (Float.is_finite r.Gp.Evolve.best_fitness);
  (* with a pre-filter the run stays deterministic *)
  let r2 = run_tiny ~dataset:training 17 in
  Alcotest.(check string) "prefiltered run deterministic"
    (Tree.to_text r.Gp.Evolve.best) (Tree.to_text r2.Gp.Evolve.best)

(* --- Dataset reuse (satellite: --dataset loads instead of recomputing) ---- *)

let test_dataset_reused_counter () =
  let file = Filename.temp_file "inltune_gp_ds" ".jsonl" in
  Sys.remove file;
  let cfg = { Dataset.default_config with Dataset.max_sites = 2; iterations = 2 } in
  let first = Dataset.load_or_generate ~file cfg [ compress ] in
  Alcotest.(check bool) "journal written" true (Sys.file_exists file);
  let before = Metric.value (Metric.counter "policy.dataset_reused") in
  let second = Dataset.load_or_generate ~file cfg [ compress ] in
  let after = Metric.value (Metric.counter "policy.dataset_reused") in
  Alcotest.(check int) "reuse counted" (before + 1) after;
  Alcotest.(check bool) "loaded examples match generated" true
    (Dataset.to_training first = Dataset.to_training second);
  Alcotest.(check bool) "non-empty" true (first <> []);
  Sys.remove file

let suite =
  [
    Alcotest.test_case "tree: eval semantics" `Quick test_eval_semantics;
    Alcotest.test_case "tree: protected division" `Quick test_eval_protected_div;
    Alcotest.test_case "tree: clamp constants" `Quick test_clamp_constants;
    Alcotest.test_case "tree: clamp prunes over-depth" `Quick test_clamp_depth;
    Alcotest.test_case "tree: clamp deterministic + idempotent" `Quick
      test_clamp_deterministic_idempotent;
    QCheck_alcotest.to_alcotest round_trip_prop;
    Alcotest.test_case "tree: print fixpoint" `Quick test_print_fixpoint;
    Alcotest.test_case "tree: parse errors are one-line and located" `Quick test_parse_errors;
    Alcotest.test_case "genetic: random trees well formed" `Quick test_random_well_formed;
    Alcotest.test_case "genetic: init deterministic" `Quick test_random_deterministic;
    Alcotest.test_case "genetic: operators deterministic and closed" `Quick
      test_operators_deterministic_and_closed;
    Alcotest.test_case "genetic: mutate prob 0 is identity" `Quick
      test_mutate_prob_zero_is_identity;
    Alcotest.test_case "decode: policy matches eval" `Quick test_decode_policy_matches_eval;
    Alcotest.test_case "decode: True/False extremes" `Quick test_decode_extremes;
    Alcotest.test_case "decode: identical decisions share Opt signature" `Quick
      test_policy_signature_shared_across_identical_trees;
    Alcotest.test_case "decode: agreement score" `Quick test_agreement;
    Alcotest.test_case "ckpt: round trip" `Quick test_ckpt_round_trip;
    Alcotest.test_case "ckpt: last valid line wins" `Quick test_ckpt_last_valid_line;
    Alcotest.test_case "ckpt: rejects garbage" `Quick test_ckpt_rejects_garbage;
    Alcotest.test_case "evolve: deterministic under fixed seed" `Quick test_evolve_deterministic;
    Alcotest.test_case "evolve: resume is bit-identical" `Quick test_evolve_resume_bit_identical;
    Alcotest.test_case "evolve: resume rejects mismatched params" `Quick
      test_evolve_resume_rejects_mismatched_params;
    Alcotest.test_case "evolve: pre-filter counters" `Quick test_evolve_prefilter_counters;
    Alcotest.test_case "dataset: load_or_generate reuses labels" `Quick
      test_dataset_reused_counter;
    Alcotest.test_case "decode: static rule compile cache transparent" `Quick
      test_static_rule_compile_cache_transparent;
  ]
