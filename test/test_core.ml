open Inltune_core
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads

(* --- Params --- *)

let test_table1_matches_heuristic_ranges () =
  List.iteri
    (fun i r ->
      let lo, hi = Heuristic.ranges.(i) in
      Alcotest.(check (pair int int)) (r.Params.pname ^ " range") (lo, hi) (r.Params.lo, r.Params.hi))
    Params.table1

let test_genome_spec_size () =
  Alcotest.(check int) "5 genes" 5 (Inltune_ga.Genome.length Params.genome_spec)

let test_heuristic_of_string_defaults () =
  Alcotest.(check bool) "empty = default" true
    (Heuristic.equal (Params.heuristic_of_string "") Heuristic.default)

let test_heuristic_of_string_override () =
  let h = Params.heuristic_of_string "CALLEE_MAX_SIZE=7, max_inline_depth=2" in
  Alcotest.(check int) "callee" 7 h.Heuristic.callee_max_size;
  Alcotest.(check int) "depth" 2 h.Heuristic.max_inline_depth;
  Alcotest.(check int) "others default" 2048 h.Heuristic.caller_max_size

let test_heuristic_of_string_rejects_garbage () =
  Alcotest.(check bool) "unknown key" true
    (try ignore (Params.heuristic_of_string "WAT=3"); false with Invalid_argument _ -> true)

(* --- Measure --- *)

let bm_compress = W.Suites.find "compress"

let test_measure_consistency () =
  let t = Measure.run ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:Heuristic.default bm_compress in
  Alcotest.(check bool) "total >= running" true (t.Measure.total >= t.Measure.running);
  Alcotest.(check bool) "compile > 0" true (t.Measure.compile > 0.0)

let test_measure_default_cached () =
  let a = Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm_compress in
  let b = Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm_compress in
  Alcotest.(check bool) "physically cached" true (a == b)

let test_measure_deterministic () =
  let go () =
    (Measure.run ~scenario:Machine.Adapt ~platform:Platform.ppc ~heuristic:Heuristic.default bm_compress)
      .Measure.total
  in
  Alcotest.(check (float 0.0)) "repeatable" (go ()) (go ())

(* --- Fitcache --- *)

let bm_db = W.Suites.find "db"

let metric name = Inltune_obs.Metric.value (Inltune_obs.Metric.counter name)

(* Restore the cache's default state (on, no file, empty) around a test. *)
let with_clean_fitcache f =
  Fitcache.clear ();
  Fun.protect
    ~finally:(fun () ->
      Fitcache.set_file None;
      Fitcache.set_enabled true;
      Fitcache.clear ())
    f

let test_fitcache_distinct_programs_distinct_keys () =
  (* The program digest is part of every key, so signatures can never
     collide across programs — even for the same heuristic and scenario. *)
  let p1 = W.Suites.program bm_compress and p2 = W.Suites.program bm_db in
  let key p =
    Fitcache.key ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:Heuristic.default
      ~inline_enabled:true ~plan:Plan.default ~iterations:3 p
  in
  Alcotest.(check bool) "digests differ" true
    (Fitcache.program_digest p1 <> Fitcache.program_digest p2);
  Alcotest.(check bool) "keys differ" true (key p1 <> key p2)

let test_fitcache_signature_separates_decisions () =
  (* Heuristics with different decision vectors must not share a signature. *)
  let p = W.Suites.program bm_compress in
  let s h =
    Fitcache.signature ~scenario:Machine.Opt ~heuristic:h ~inline_enabled:true
      ~plan:Plan.default p
  in
  Alcotest.(check bool) "never <> default" true (s Heuristic.never <> s Heuristic.default);
  Alcotest.(check string) "inlining off merges everything" "off"
    (Fitcache.signature ~scenario:Machine.Opt ~heuristic:Heuristic.never ~inline_enabled:false
       ~plan:Plan.default p)

let test_fitcache_inert_param_merges_soundly () =
  (* Under Opt the hot-site path is never consulted, so HOT_CALLEE_MAX_SIZE
     is inert: the signature must merge it with the default's, and — the
     soundness claim behind that merge — the two queries must measure
     bit-identically even with the cache off. *)
  let p = W.Suites.program bm_compress in
  let h2 = { Heuristic.default with Heuristic.hot_callee_max_size = 17 } in
  let s h =
    Fitcache.signature ~scenario:Machine.Opt ~heuristic:h ~inline_enabled:true
      ~plan:Plan.default p
  in
  Alcotest.(check string) "signatures merge" (s Heuristic.default) (s h2);
  with_clean_fitcache (fun () ->
      Fitcache.set_enabled false;
      let m h =
        (Measure.run ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:h bm_compress)
          .Measure.raw
      in
      Alcotest.(check bool) "cache-off measurements identical" true
        (m Heuristic.default = m h2))

let test_fitcache_hit_avoids_simulation () =
  with_clean_fitcache (fun () ->
      let s0 = metric "measure.simulations" in
      let m1 =
        Measure.run ~scenario:Machine.Opt ~platform:Platform.x86
          ~heuristic:Heuristic.default bm_compress
      in
      let s1 = metric "measure.simulations" in
      Alcotest.(check int) "first query simulates once" (s0 + 1) s1;
      let h2 = { Heuristic.default with Heuristic.hot_callee_max_size = 17 } in
      let m2 =
        Measure.run ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:h2 bm_compress
      in
      Alcotest.(check int) "signature hit simulates nothing" s1 (metric "measure.simulations");
      Alcotest.(check bool) "reused measurement is bit-identical" true
        (m1.Measure.raw = m2.Measure.raw))

let test_fitcache_file_round_trip () =
  let path = Filename.temp_file "fitcache" ".jsonl" in
  with_clean_fitcache (fun () ->
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
          Fitcache.set_file (Some path);
          let m1 =
            Measure.run ~scenario:Machine.Adapt ~platform:Platform.x86
              ~heuristic:Heuristic.default bm_db
          in
          (* Forget the in-memory tier, then reload from disk. *)
          Fitcache.set_file None;
          Fitcache.clear ();
          Fitcache.set_file (Some path);
          let p = W.Suites.program bm_db in
          Alcotest.(check bool) "entry reloaded from disk" true
            (Fitcache.mem ~scenario:Machine.Adapt ~platform:Platform.x86
               ~heuristic:Heuristic.default ~inline_enabled:true ~plan:Plan.default
               ~iterations:3 p);
          let s0 = metric "measure.simulations" in
          let m2 =
            Measure.run ~scenario:Machine.Adapt ~platform:Platform.x86
              ~heuristic:Heuristic.default bm_db
          in
          Alcotest.(check int) "no new simulation after reload" s0
            (metric "measure.simulations");
          Alcotest.(check bool) "measurement identical across restart" true
            (m1.Measure.raw = m2.Measure.raw)))

let test_fitcache_corrupt_file_skipped () =
  let path = Filename.temp_file "fitcache" ".jsonl" in
  with_clean_fitcache (fun () ->
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
          (* A good entry, wrapped in garbage, a field-less record, and a
             line truncated mid-append: attach must keep the good entry and
             skip the rest with warnings, never abort. *)
          Fitcache.set_file (Some path);
          ignore
            (Measure.run ~scenario:Machine.Opt ~platform:Platform.x86
               ~heuristic:Heuristic.default bm_db);
          Fitcache.set_file None;
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc "not json at all\n";
          output_string oc "{\"key\":\"orphan\"}\n";
          output_string oc "{\"key\":\"k/1\",\"total_cycles\":12,\"running_cy";
          close_out oc;
          Fitcache.clear ();
          Fitcache.set_file (Some path);
          let p = W.Suites.program bm_db in
          Alcotest.(check bool) "good entry survives corrupt neighbours" true
            (Fitcache.mem ~scenario:Machine.Opt ~platform:Platform.x86
               ~heuristic:Heuristic.default ~inline_enabled:true ~plan:Plan.default
               ~iterations:3 p)))

let test_fitcache_corrupt_lines_counted () =
  (* Every skipped line at attach time lands in the "fitness.cache_corrupt"
     counter (one summary warning per file, but each line counted), so a
     rotting cache file is visible in stats long after the stderr note
     scrolled away. *)
  let path = Filename.temp_file "fitcache" ".jsonl" in
  with_clean_fitcache (fun () ->
      Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () ->
          let oc = open_out path in
          output_string oc "not json at all\n";
          output_string oc "{\"key\":\"orphan\"}\n";
          output_string oc "{\"key\":\"k/1\",\"total_cycles\":12,\"running_cy";
          close_out oc;
          let c0 = metric "fitness.cache_corrupt" in
          Fitcache.set_file (Some path);
          Alcotest.(check int) "three corrupt lines counted" (c0 + 3)
            (metric "fitness.cache_corrupt");
          Alcotest.(check int) "nothing loaded" 0 (Fitcache.size ());
          (* Re-attaching recounts: the counter tracks attach events, so a
             persistent daemon re-reading a bad file keeps reporting it. *)
          Fitcache.set_file None;
          Fitcache.set_file (Some path);
          Alcotest.(check int) "recounted on re-attach" (c0 + 6)
            (metric "fitness.cache_corrupt")))

let test_fitcache_cross_tenant_hits () =
  (* Tenant attribution: the first tenant to store a signature owns it; a
     different tenant hitting it bumps "fitness.cross_tenant_hits" — the
     daemon's evidence that tenants amortize each other's simulations. *)
  with_clean_fitcache (fun () ->
      let cur = ref (Some "alice") in
      Fitcache.set_tenant_hook (fun () -> !cur);
      Fun.protect
        ~finally:(fun () -> Fitcache.set_tenant_hook (fun () -> None))
        (fun () ->
          let x0 = metric "fitness.cross_tenant_hits" in
          let go () =
            Measure.run ~scenario:Machine.Opt ~platform:Platform.x86
              ~heuristic:Heuristic.default bm_db
          in
          ignore (go ());
          (* Alice hitting her own entry is not a cross-tenant hit. *)
          ignore (go ());
          Alcotest.(check int) "self hit not counted" x0
            (metric "fitness.cross_tenant_hits");
          cur := Some "bob";
          ignore (go ());
          Alcotest.(check int) "bob hits alice's entry" (x0 + 1)
            (metric "fitness.cross_tenant_hits")))

let test_fitcache_ga_bit_transparent () =
  (* The tentpole invariant: the same fixed-seed GA, cache off vs on, must
     produce the same best genome and the same per-generation history. *)
  let budget = { Tuner.pop = 6; gens = 3; seed = 5 } in
  let go () = Tuner.tune ~budget ~suite:[ bm_compress; bm_db ] Tuner.Opt_tot_x86 in
  let off =
    with_clean_fitcache (fun () ->
        Fitcache.set_enabled false;
        go ())
  in
  let on = with_clean_fitcache go in
  Alcotest.(check (array int)) "best genome identical"
    off.Tuner.ga.Inltune_ga.Evolve.best on.Tuner.ga.Inltune_ga.Evolve.best;
  Alcotest.(check (float 0.0)) "best fitness identical"
    off.Tuner.ga.Inltune_ga.Evolve.best_fitness on.Tuner.ga.Inltune_ga.Evolve.best_fitness;
  Alcotest.(check bool) "per-generation history identical" true
    (off.Tuner.ga.Inltune_ga.Evolve.history = on.Tuner.ga.Inltune_ga.Evolve.history)

let zero_measurement =
  {
    Runner.total_cycles = 0; running_cycles = 0; first_exec_cycles = 0;
    first_compile_cycles = 0; opt_compiles = 0; baseline_compiles = 0; code_bytes = 0;
    icache_misses = 0; icache_accesses = 0; steps = 0; ret = 0; out_hash = 0;
  }

let test_fitcache_failed_append_releases_lock () =
  (* An unwritable cache file makes the append raise while the entry is
     being stored; the lock must be released, so a lookup from another
     domain still returns (here: the entry stored before the append). *)
  let dir = Filename.temp_file "fitcache" ".notadir" in
  with_clean_fitcache (fun () ->
      Fun.protect ~finally:(fun () -> try Sys.remove dir with Sys_error _ -> ()) (fun () ->
          Fitcache.set_file (Some (Filename.concat dir "cache.jsonl"));
          let p = W.Suites.program bm_db in
          let lookup () =
            Fitcache.lookup_or_measure ~scenario:Machine.Opt ~platform:Platform.x86
              ~heuristic:Heuristic.default ~inline_enabled:true ~plan:Plan.default
              ~iterations:3 ~program:p (fun _ -> zero_measurement)
          in
          Alcotest.(check bool) "append fails" true
            (try ignore (lookup ()); false with Sys_error _ -> true);
          let m = Domain.join (Domain.spawn lookup) in
          Alcotest.(check bool) "second lookup returns the stored entry" true
            (m = zero_measurement)))

(* --- compiled-method cache --- *)

(* The decision walk Fitcache hands the simulation it starts on a miss. *)
let walk_of_lookup lookup =
  let walk = ref None in
  with_clean_fitcache (fun () ->
      ignore
        (lookup (fun w ->
             walk := w;
             zero_measurement)));
  !walk

let cache_hits () = metric "vm.compile_cache.hits"

let test_compile_cache_transparent () =
  (* Every benchmark under Opt: a simulation that compiles through the
     cache — cold, then warm — measures exactly what an uncached one does,
     and the warm one reuses compiled methods.  With event tracing on the
     cache is bypassed. *)
  let h = Heuristic.default in
  List.iter
    (fun bm ->
      let prog = W.Suites.program bm in
      let walk =
        walk_of_lookup
          (Fitcache.lookup_or_measure ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:h
             ~inline_enabled:true ~plan:Plan.default ~iterations:2 ~program:prog)
      in
      Alcotest.(check bool) (bm.W.Suites.bname ^ ": exact walk") true (walk <> None);
      let measure ?walk () =
        Runner.measure ~iterations:2 (Machine.config ?walk Machine.Opt h) Platform.x86 prog
      in
      let off = measure () in
      Compile_cache.clear ();
      let cold = measure ?walk () in
      let h0 = cache_hits () in
      let warm = measure ?walk () in
      Alcotest.(check bool) (bm.W.Suites.bname ^ ": warm run hits") true (cache_hits () > h0);
      Alcotest.(check bool) (bm.W.Suites.bname ^ ": cold = uncached") true (cold = off);
      Alcotest.(check bool) (bm.W.Suites.bname ^ ": warm = uncached") true (warm = off))
    W.Suites.all;
  let prog = W.Suites.program bm_compress in
  let walk =
    walk_of_lookup
      (Fitcache.lookup_or_measure ~scenario:Machine.Opt ~platform:Platform.x86 ~heuristic:h
         ~inline_enabled:true ~plan:Plan.default ~iterations:2 ~program:prog)
  in
  let path = Filename.temp_file "inltune_cc" ".jsonl" in
  Inltune_obs.Trace.to_file path;
  let h0 = cache_hits () in
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Inltune_obs.Trace.disable ();
        Sys.remove path)
      (fun () -> Runner.measure ~iterations:2 (Machine.config ?walk Machine.Opt h) Platform.x86 prog)
  in
  Alcotest.(check int) "tracing bypasses the cache" h0 (cache_hits ());
  Alcotest.(check bool) "traced = uncached" true
    (traced = Runner.measure ~iterations:2 (Machine.config Machine.Opt h) Platform.x86 prog)

let test_compile_cache_bypassed_off_walk () =
  (* Threshold projections (Adapt) and disabled fitness caching hand the
     simulation no walk. *)
  let prog = W.Suites.program bm_db in
  let walk scenario =
    walk_of_lookup
      (Fitcache.lookup_or_measure ~scenario ~platform:Platform.x86 ~heuristic:Heuristic.default
         ~inline_enabled:true ~plan:Plan.default ~iterations:2 ~program:prog)
  in
  Alcotest.(check bool) "adapt: no walk" true (walk Machine.Adapt = None);
  Alcotest.(check bool) "opt: walk" true (walk Machine.Opt <> None);
  let w = ref (Some { Compile_cache.program = ""; decisions = [||] }) in
  with_clean_fitcache (fun () ->
      Fitcache.set_enabled false;
      ignore
        (Fitcache.lookup_or_measure ~scenario:Machine.Opt ~platform:Platform.x86
           ~heuristic:Heuristic.default ~inline_enabled:true ~plan:Plan.default ~iterations:2
           ~program:prog (fun walk ->
             w := walk;
             zero_measurement)));
  Alcotest.(check bool) "fitness cache off: no walk" true (!w = None)

(* --- Objective --- *)

let test_perf_running_and_total () =
  let mk running total =
    { Measure.running; total; compile = total -. running;
      raw =
        (let p = W.Suites.program bm_compress in
         Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p);
    }
  in
  let d = mk 100.0 200.0 in
  let t = mk 50.0 300.0 in
  Alcotest.(check (float 1e-9)) "running ratio" 0.5 (Objective.perf Objective.Running ~t ~default:d);
  Alcotest.(check (float 1e-9)) "total ratio" 1.5 (Objective.perf Objective.Total ~t ~default:d);
  (* balance: factor = 200/100 = 2; value = 2*50+300 = 400; default = 2*100+200 = 400 *)
  Alcotest.(check (float 1e-9)) "balance ratio" 1.0 (Objective.perf Objective.Balance ~t ~default:d)

let test_perf_default_is_unity () =
  let d = Measure.run_default ~scenario:Machine.Opt ~platform:Platform.x86 bm_compress in
  List.iter
    (fun goal ->
      Alcotest.(check (float 1e-9))
        (Objective.goal_name goal ^ " of default = 1")
        1.0
        (Objective.perf goal ~t:d ~default:d))
    [ Objective.Running; Objective.Total; Objective.Balance ]

let test_goal_of_string () =
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun g -> Objective.goal_of_string (Objective.goal_name g) = g)
       [ Objective.Running; Objective.Total; Objective.Balance ]);
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (Objective.goal_of_string "speed"); false with Invalid_argument _ -> true)

let test_fitness_of_default_is_one () =
  let f =
    Objective.fitness ~suite:[ bm_compress ] ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Total
  in
  Alcotest.(check (float 1e-9)) "default scores 1.0" 1.0 (f Heuristic.default)

let test_fitness_never_heuristic_differs () =
  let f =
    Objective.fitness ~suite:[ bm_compress ] ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Running
  in
  Alcotest.(check bool) "no-inlining scores worse than default" true (f Heuristic.never > 1.0)

(* --- Tuner --- *)

let test_scenario_specs () =
  List.iter
    (fun id ->
      let s = Tuner.spec_of id in
      Alcotest.(check bool) (s.Tuner.label ^ " wellformed") true (String.length s.Tuner.label > 0))
    Tuner.all_scenarios;
  Alcotest.(check bool) "adapt uses balance" true
    ((Tuner.spec_of Tuner.Adapt_x86).Tuner.goal = Objective.Balance);
  Alcotest.(check bool) "opt:tot uses total" true
    ((Tuner.spec_of Tuner.Opt_tot_x86).Tuner.goal = Objective.Total);
  Alcotest.(check bool) "ppc spec on ppc" true
    ((Tuner.spec_of Tuner.Adapt_ppc).Tuner.platform.Platform.pname = "ppc")

let test_scenario_of_string () =
  Alcotest.(check bool) "all round-trip" true
    (List.for_all
       (fun (s, id) -> Tuner.scenario_of_string s = id)
       [
         ("adapt", Tuner.Adapt_x86);
         ("opt:bal", Tuner.Opt_bal_x86);
         ("opt:tot", Tuner.Opt_tot_x86);
         ("adapt-ppc", Tuner.Adapt_ppc);
         ("opt:bal-ppc", Tuner.Opt_bal_ppc);
       ])

let test_tune_micro_budget_beats_or_matches_default () =
  (* A tiny GA run on a single benchmark: the tuned heuristic's fitness is
     <= 1.0 by construction (the GA can always keep the default's score by
     dominating it, but at minimum it must return a valid heuristic whose
     measured fitness equals its reported fitness). *)
  let budget = { Tuner.pop = 6; gens = 2; seed = 7 } in
  let o = Tuner.tune ~budget ~suite:[ bm_compress ] Tuner.Opt_tot_x86 in
  let f =
    Objective.fitness ~suite:[ bm_compress ] ~scenario:Machine.Opt ~platform:Platform.x86
      ~goal:Objective.Total
  in
  Alcotest.(check (float 1e-9)) "reported = measured" o.Tuner.fitness (f o.Tuner.heuristic);
  Alcotest.(check bool) "genome in ranges" true
    (Inltune_ga.Genome.valid Params.genome_spec (Heuristic.to_array o.Tuner.heuristic))

(* --- Resilience wiring: classifier, fault hooks, fuel-exhaustion penalty --- *)

let test_transient_failure_classification () =
  Alcotest.(check bool) "out of fuel" true (Objective.transient_failure Machine.Out_of_fuel);
  Alcotest.(check bool) "trap" true (Objective.transient_failure (Machine.Trap "x"));
  Alcotest.(check bool) "stack overflow" true (Objective.transient_failure Stack_overflow);
  Alcotest.(check bool) "injected fault" true
    (Objective.transient_failure (Inltune_resilience.Faultinject.Injected "eval"));
  Alcotest.(check bool) "other exceptions are bugs" false (Objective.transient_failure Exit)

let test_genome_fitness_fault_injection () =
  let module F = Inltune_resilience.Faultinject in
  F.install
    [
      { F.site = "eval"; action = F.Corrupt; at = 1 };
      { F.site = "eval"; action = F.Raise; at = 2 };
    ];
  Fun.protect ~finally:F.clear (fun () ->
      let f =
        Objective.genome_fitness ~suite:[ bm_compress ] ~scenario:Machine.Opt
          ~platform:Platform.x86 ~goal:Objective.Total
      in
      let g = Heuristic.to_array Heuristic.default in
      Alcotest.(check bool) "corrupt -> nan" true (Float.is_nan (f g));
      Alcotest.(check bool) "raise -> Injected" true
        (try ignore (f g); false with F.Injected _ -> true);
      Alcotest.(check (float 1e-9)) "healthy call unaffected" 1.0 (f g))

let test_fuel_exhaustion_penalized () =
  (* An evaluation that exhausts its fuel budget is retried, then penalized
     and quarantined; genomes that evaluate cleanly still win the search. *)
  let fitness g = if g.(0) > 25 then raise Machine.Out_of_fuel else 1.0 in
  let guard =
    {
      Inltune_ga.Evolve.default_guard with
      Inltune_ga.Evolve.classify = Objective.transient_failure;
      failure_threshold = 1.1;
    }
  in
  let params =
    {
      Inltune_ga.Evolve.default_params with
      Inltune_ga.Evolve.pop_size = 8;
      generations = 3;
      seed = 11;
      domains = Some 1;
    }
  in
  let r = Inltune_ga.Evolve.run ~guard ~spec:Params.genome_spec ~params ~fitness () in
  Alcotest.(check bool) "some evaluations failed" true (r.Inltune_ga.Evolve.failures > 0);
  Alcotest.(check int) "failures quarantined" r.Inltune_ga.Evolve.failures
    r.Inltune_ga.Evolve.quarantined;
  Alcotest.(check (float 0.0)) "survivors score normally" 1.0
    r.Inltune_ga.Evolve.best_fitness

(* --- Report / Experiments (cheap ones only) --- *)

let test_report_bars_table () =
  let rows =
    [
      { Report.label = "a"; running_ratio = 0.9; total_ratio = 0.8 };
      { Report.label = "b"; running_ratio = 1.1; total_ratio = 1.2 };
    ]
  in
  let t, run_avg, tot_avg = Report.bars_table ~title:"t" ~baseline_name:"x" rows in
  Alcotest.(check bool) "geomean between" true (run_avg > 0.9 && run_avg < 1.1);
  Alcotest.(check bool) "tot geomean between" true (tot_avg > 0.8 && tot_avg < 1.2);
  Alcotest.(check bool) "renders" true (String.length (Inltune_support.Table.render t) > 0)

let test_experiment_table1_runs () =
  Alcotest.(check int) "one table" 1 (List.length (Experiments.table1 ()))

let test_experiment_fig1_runs () =
  Alcotest.(check int) "two tables" 2 (List.length (Experiments.fig1 ()))

let test_experiment_unknown_rejected () =
  let ctx = Experiments.make_ctx ~verbose:false () in
  Alcotest.(check bool) "unknown id" true
    (try Experiments.run_one ctx "fig99"; false with Invalid_argument _ -> true)

let test_fig2_series_varies () =
  let series =
    Experiments.fig2_series ~bench:"jess" ~scenario:Machine.Opt ~platform:Platform.x86
      [ 0; 5 ]
  in
  match series with
  | [ (0, t0); (5, t5) ] ->
    Alcotest.(check bool) "depth changes jess Opt total" true (t0 <> t5)
  | _ -> Alcotest.fail "series shape"

let suite =
  [
    ("table1 matches heuristic ranges", `Quick, test_table1_matches_heuristic_ranges);
    ("genome spec has 5 genes", `Quick, test_genome_spec_size);
    ("heuristic_of_string default", `Quick, test_heuristic_of_string_defaults);
    ("heuristic_of_string overrides", `Quick, test_heuristic_of_string_override);
    ("heuristic_of_string rejects garbage", `Quick, test_heuristic_of_string_rejects_garbage);
    ("measure consistency", `Quick, test_measure_consistency);
    ("measure default cached", `Quick, test_measure_default_cached);
    ("measure deterministic", `Quick, test_measure_deterministic);
    ("fitcache distinct programs distinct keys", `Quick, test_fitcache_distinct_programs_distinct_keys);
    ("fitcache signature separates decisions", `Quick, test_fitcache_signature_separates_decisions);
    ("fitcache inert parameter merges soundly", `Quick, test_fitcache_inert_param_merges_soundly);
    ("fitcache hit avoids simulation", `Quick, test_fitcache_hit_avoids_simulation);
    ("fitcache file round trip", `Quick, test_fitcache_file_round_trip);
    ("fitcache corrupt file skipped", `Quick, test_fitcache_corrupt_file_skipped);
    ("fitcache corrupt lines counted", `Quick, test_fitcache_corrupt_lines_counted);
    ("fitcache cross-tenant hits", `Quick, test_fitcache_cross_tenant_hits);
    ("fitcache GA bit transparent", `Slow, test_fitcache_ga_bit_transparent);
    ("objective perf formulas", `Quick, test_perf_running_and_total);
    ("objective default is unity", `Quick, test_perf_default_is_unity);
    ("objective goal parsing", `Quick, test_goal_of_string);
    ("fitness of default is 1.0", `Quick, test_fitness_of_default_is_one);
    ("fitness of never > 1.0", `Quick, test_fitness_never_heuristic_differs);
    ("tuner scenario specs", `Quick, test_scenario_specs);
    ("tuner scenario parsing", `Quick, test_scenario_of_string);
    ("tuner micro budget", `Slow, test_tune_micro_budget_beats_or_matches_default);
    ("transient failure classification", `Quick, test_transient_failure_classification);
    ("genome_fitness fault injection", `Quick, test_genome_fitness_fault_injection);
    ("fuel exhaustion penalized", `Quick, test_fuel_exhaustion_penalized);
    ("report bars table", `Quick, test_report_bars_table);
    ("experiment table1", `Quick, test_experiment_table1_runs);
    ("experiment fig1", `Slow, test_experiment_fig1_runs);
    ("experiment unknown id rejected", `Quick, test_experiment_unknown_rejected);
    ("fig2 series varies with depth", `Slow, test_fig2_series_varies);
    ("fitcache failed append releases lock", `Quick, test_fitcache_failed_append_releases_lock);
    ("compile cache transparent on every benchmark", `Slow, test_compile_cache_transparent);
    ("compile cache bypassed without a walk", `Quick, test_compile_cache_bypassed_off_walk);
  ]
