open Inltune_jir
open Inltune_vm
open Inltune_opt
module B = Builder

(* --- Icache --- *)

let test_icache_cold_miss_then_hit () =
  let c = Icache.create ~bytes:1024 ~line_bytes:64 in
  Alcotest.(check bool) "first access misses" true (Icache.access c 0x100);
  Alcotest.(check bool) "second access hits" false (Icache.access c 0x100);
  Alcotest.(check bool) "same line hits" false (Icache.access c 0x13f)

let test_icache_conflict_eviction () =
  let c = Icache.create ~bytes:1024 ~line_bytes:64 in
  (* 16 lines; addresses 0 and 1024 map to the same index. *)
  ignore (Icache.access c 0);
  Alcotest.(check bool) "conflicting line misses" true (Icache.access c 1024);
  Alcotest.(check bool) "original evicted" true (Icache.access c 0)

let test_icache_counters () =
  let c = Icache.create ~bytes:512 ~line_bytes:64 in
  for i = 0 to 9 do
    ignore (Icache.access c (i * 64))
  done;
  Alcotest.(check int) "accesses" 10 (Icache.accesses c);
  Alcotest.(check bool) "miss rate positive" true (Icache.miss_rate c > 0.0);
  Icache.reset_counters c;
  Alcotest.(check int) "reset" 0 (Icache.accesses c)

let test_icache_records_first_install () =
  let c = Icache.create ~bytes:1024 ~line_bytes:64 in
  (* 16 sets; lines 2 and 18 (addresses 128 and 1152) share set 2. *)
  ignore (Icache.access c 128);
  Alcotest.(check int) "first install recorded" 2 c.Icache.first.(2);
  ignore (Icache.access c 1152);
  ignore (Icache.access c 128);
  ignore (Icache.access c 1152);
  Alcotest.(check int) "later misses keep the first line" 2 c.Icache.first.(2);
  Alcotest.(check int) "tag follows the last miss" 18 c.Icache.tags.(2);
  Array.iteri
    (fun s line ->
      if s <> 2 then Alcotest.(check int) (Printf.sprintf "set %d untouched" s) (-1) line)
    c.Icache.first

let test_icache_rejects_bad_geometry () =
  Alcotest.(check bool) "non-power-of-two rejected" true
    (try
       ignore (Icache.create ~bytes:1000 ~line_bytes:48);
       false
     with Invalid_argument _ -> true)

(* --- Codespace --- *)

let test_codespace_bump () =
  let cs = Codespace.create () in
  let a1 = Codespace.alloc cs 100 in
  let a2 = Codespace.alloc cs 50 in
  Alcotest.(check int) "disjoint" (a1 + 100) a2;
  Alcotest.(check int) "total" 150 (Codespace.allocated cs)

(* --- Profile --- *)

let test_profile_edges_and_hotness () =
  let p = Profile.create 4 in
  for _ = 1 to 90 do
    Profile.record_call p ~site_owner:0 ~callee:1
  done;
  for _ = 1 to 10 do
    Profile.record_call p ~site_owner:0 ~callee:2
  done;
  Alcotest.(check int) "edge count" 90 (Profile.edge_count p ~site_owner:0 ~callee:1);
  Alcotest.(check bool) "hot edge" true
    (Profile.hot_site p ~fraction:0.5 ~floor:1 ~site_owner:0 ~callee:1);
  Alcotest.(check bool) "cold edge" false
    (Profile.hot_site p ~fraction:0.5 ~floor:1 ~site_owner:0 ~callee:2)

let test_profile_samples () =
  let p = Profile.create 3 in
  Profile.record_sample p 1;
  Profile.record_sample p 1;
  Profile.record_sample p 2;
  Alcotest.(check int) "samples" 2 (Profile.samples p 1);
  Alcotest.(check (list int)) "hottest first" [ 1 ] [ List.hd (Profile.hottest p 1) ]

(* --- Platform --- *)

let test_platform_lookup () =
  Alcotest.(check string) "x86" "x86" Platform.x86.Platform.pname;
  Alcotest.(check string) "ppc" "ppc" (Platform.by_name "ppc").Platform.pname;
  Alcotest.(check bool) "unknown rejected" true
    (try ignore (Platform.by_name "sparc"); false with Invalid_argument _ -> true)

let test_platform_compile_costs_monotone () =
  let p = Platform.x86 in
  Alcotest.(check bool) "opt compile grows superlinearly" true
    (Platform.opt_compile_cycles p ~size_peak:2000
     > 2 * Platform.opt_compile_cycles p ~size_peak:1000);
  Alcotest.(check bool) "baseline compile cheaper" true
    (Platform.baseline_compile_cycles p ~size:1000 < Platform.opt_compile_cycles p ~size_peak:1000)

let test_platform_seconds () =
  Alcotest.(check (float 1e-12)) "1 cycle at 1Hz-scaled" (1.0 /. Platform.x86.Platform.clock_hz)
    (Platform.seconds Platform.x86 1)

(* --- Machine / Interp --- *)

let program_with_result f =
  let b = B.create "t" in
  let main = B.method_ b ~name:"main" ~nargs:0 f in
  B.set_main b main;
  B.finish b

let run_ret ?(scenario = Machine.Opt) ?(heuristic = Heuristic.default) p =
  let vm = Machine.create (Machine.config scenario heuristic) Platform.x86 p in
  (Machine.run_iteration vm).Machine.ret

let test_interp_arithmetic () =
  let p =
    program_with_result (fun mb ->
        let a = B.const mb 20 in
        let c = B.const mb 3 in
        let m = B.mul mb a c in
        let d = B.binop mb Ir.Div m c in
        let s = B.sub mb d c in
        let r = B.add mb s c in
        B.ret mb r)
  in
  Alcotest.(check int) "arithmetic" 20 (run_ret p)

let test_interp_division_by_zero_is_zero () =
  let p =
    program_with_result (fun mb ->
        let a = B.const mb 7 in
        let z = B.const mb 0 in
        let d = B.binop mb Ir.Div a z in
        let m = B.binop mb Ir.Mod a z in
        let r = B.add mb d m in
        B.ret mb r)
  in
  Alcotest.(check int) "x/0 = x mod 0 = 0" 0 (run_ret p)

let test_interp_branch_and_loop () =
  let p =
    program_with_result (fun mb ->
        let acc = B.fresh_reg mb in
        B.emit mb (Ir.Const (acc, 0));
        let n = B.const mb 10 in
        B.for_loop mb ~n (fun i -> B.emit mb (Ir.Binop (Ir.Add, acc, acc, i)));
        B.ret mb acc)
  in
  Alcotest.(check int) "sum 0..9" 45 (run_ret p)

let test_interp_heap_roundtrip () =
  let b = B.create "heap" in
  let k = B.new_class b ~name:"k" ~vtable:[||] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let o = B.alloc mb k ~slots:3 in
        let v = B.const mb 99 in
        B.store mb o 2 v;
        let r = B.load mb o 2 in
        let i = B.const mb 0 in
        B.store_idx mb o i r;
        let r2 = B.load_idx mb o i in
        B.ret mb r2)
  in
  B.set_main b main;
  Alcotest.(check int) "heap roundtrip" 99 (run_ret (B.finish b))

let test_interp_virtual_dispatch () =
  let b = B.create "virt" in
  let impl1 = B.method_ b ~name:"one" ~nargs:1 (fun mb -> B.ret mb (B.const mb 1)) in
  let impl2 = B.method_ b ~name:"two" ~nargs:1 (fun mb -> B.ret mb (B.const mb 2)) in
  let k1 = B.new_class b ~name:"k1" ~vtable:[| impl1 |] in
  let k2 = B.new_class b ~name:"k2" ~vtable:[| impl2 |] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let o1 = B.alloc mb k1 ~slots:0 in
        let o2 = B.alloc mb k2 ~slots:0 in
        let r1 = B.call_virt mb ~slot:0 o1 [] in
        let r2 = B.call_virt mb ~slot:0 o2 [] in
        let ten = B.const mb 10 in
        let t = B.mul mb r2 ten in
        let r = B.add mb r1 t in
        B.ret mb r)
  in
  B.set_main b main;
  Alcotest.(check int) "dispatch picks per-class impl" 21 (run_ret (B.finish b))

let test_interp_out_of_fuel () =
  let b = B.create "inf" in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let l = B.fresh_block mb in
        B.jump mb l;
        B.select mb l;
        ignore (B.const mb 1);
        B.jump mb l)
  in
  (* The entry block jumps into an infinite loop; give it a Ret-able shape by
     construction: loop never returns, fuel must trip. *)
  B.set_main b main;
  let p = B.finish b in
  let vm = Machine.create (Machine.config ~fuel:10_000 Machine.Opt Heuristic.default) Platform.x86 p in
  Alcotest.(check bool) "fuel exhausted" true
    (try ignore (Machine.run_iteration vm); false with Machine.Out_of_fuel -> true)

let test_interp_heap_bounds_trap () =
  let b = B.create "oob" in
  let k = B.new_class b ~name:"k" ~vtable:[||] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let o = B.alloc mb k ~slots:1 in
        let r = B.load mb o 5000 in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  let vm = Machine.create (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
  Alcotest.(check bool) "trap raised" true
    (try ignore (Machine.run_iteration vm); false with Machine.Trap _ -> true)

let test_interp_stack_overflow_trap () =
  let b = B.create "deep" in
  let f = B.declare b ~name:"f" ~nargs:1 in
  B.define b f (fun mb ->
      let one = B.const mb 1 in
      let x = B.add mb 0 one in
      let r = B.call mb f [ x ] in
      B.ret mb r);
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let z = B.const mb 0 in
        let r = B.call mb f [ z ] in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  (* Use the never heuristic so the recursion is not unrolled at compile
     time; execution must hit the simulated stack limit. *)
  let vm = Machine.create (Machine.config Machine.Opt Heuristic.never) Platform.x86 p in
  Alcotest.(check bool) "stack trap" true
    (try ignore (Machine.run_iteration vm); false with Machine.Trap _ -> true)

let test_opt_scenario_compiles_reachable_only () =
  let b = B.create "lazy" in
  let _unused = B.method_ b ~name:"unused" ~nargs:0 (fun mb -> B.ret mb (B.const mb 0)) in
  let main = B.method_ b ~name:"main" ~nargs:0 (fun mb -> B.ret mb (B.const mb 7)) in
  B.set_main b main;
  let p = B.finish b in
  let vm = Machine.create (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
  ignore (Machine.run_iteration vm);
  Alcotest.(check int) "only main compiled" 1 (Machine.opt_compiles vm);
  Alcotest.(check bool) "unused never compiled" true (Machine.compiled_method vm _unused = None)

let test_adapt_starts_baseline () =
  let bm = Inltune_workloads.Suites.find "compress" in
  let p = Inltune_workloads.Suites.program bm in
  let vm = Machine.create (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
  ignore (Machine.run_iteration vm);
  Alcotest.(check bool) "baseline compiles happened" true (Machine.baseline_compiles vm > 0);
  Alcotest.(check bool) "hot methods promoted" true (Machine.opt_compiles vm > 0);
  Alcotest.(check bool) "fewer promotions than baselines" true
    (Machine.opt_compiles vm < Machine.baseline_compiles vm)

let test_adapt_promotion_improves_later_iterations () =
  let bm = Inltune_workloads.Suites.find "compress" in
  let p = Inltune_workloads.Suites.program bm in
  let vm = Machine.create (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
  let it1 = Machine.run_iteration vm in
  let _it2 = Machine.run_iteration vm in
  let it3 = Machine.run_iteration vm in
  Alcotest.(check bool) "warmed run faster" true
    (it3.Machine.it_exec_cycles < it1.Machine.it_exec_cycles)

let test_iterations_deterministic_outputs () =
  let bm = Inltune_workloads.Suites.find "db" in
  let p = Inltune_workloads.Suites.program bm in
  let vm = Machine.create (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
  let it1 = Machine.run_iteration vm in
  let it2 = Machine.run_iteration vm in
  Alcotest.(check int) "same result" it1.Machine.ret it2.Machine.ret;
  Alcotest.(check int) "same output hash" it1.Machine.it_out_hash it2.Machine.it_out_hash

let test_vm_runs_deterministic () =
  let bm = Inltune_workloads.Suites.find "raytrace" in
  let p = Inltune_workloads.Suites.program bm in
  let go () =
    let vm = Machine.create (Machine.config Machine.Adapt Heuristic.default) Platform.x86 p in
    let it = Machine.run_iteration vm in
    (it.Machine.ret, it.Machine.it_exec_cycles, vm.Machine.compile_cycles)
  in
  Alcotest.(check bool) "two fresh VMs agree exactly" true (go () = go ())

(* --- Runner --- *)

let test_runner_total_includes_compile () =
  let bm = Inltune_workloads.Suites.find "compress" in
  let p = Inltune_workloads.Suites.program bm in
  let m = Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
  Alcotest.(check int) "total = exec + compile"
    (m.Runner.first_exec_cycles + m.Runner.first_compile_cycles)
    m.Runner.total_cycles;
  Alcotest.(check bool) "running < total" true (m.Runner.running_cycles < m.Runner.total_cycles)

let test_runner_rejects_single_iteration () =
  let bm = Inltune_workloads.Suites.find "compress" in
  let p = Inltune_workloads.Suites.program bm in
  Alcotest.(check bool) "needs >= 2 iterations" true
    (try
       ignore (Runner.measure ~iterations:1 (Machine.config Machine.Opt Heuristic.default) Platform.x86 p);
       false
     with Invalid_argument _ -> true)

let test_icache_disabled_is_faster () =
  let bm = Inltune_workloads.Suites.find "jess" in
  let p = Inltune_workloads.Suites.program bm in
  let with_cache =
    Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p
  in
  let without =
    Runner.measure (Machine.config ~icache_enabled:false Machine.Opt Heuristic.default) Platform.x86 p
  in
  Alcotest.(check bool) "icache adds cost" true
    (without.Runner.running_cycles < with_cache.Runner.running_cycles)

let test_observe_matches_checksum () =
  let bm = Inltune_workloads.Suites.find "compress" in
  let p = Inltune_workloads.Suites.program bm in
  let ret, outputs = Runner.observe Platform.x86 p in
  Alcotest.(check bool) "one output (the checksum)" true (Array.length outputs = 1);
  Alcotest.(check int) "checksum printed" ret outputs.(0)

let suite =
  [
    ("icache cold miss then hit", `Quick, test_icache_cold_miss_then_hit);
    ("icache conflict eviction", `Quick, test_icache_conflict_eviction);
    ("icache counters", `Quick, test_icache_counters);
    ("icache rejects bad geometry", `Quick, test_icache_rejects_bad_geometry);
    ("codespace bump allocation", `Quick, test_codespace_bump);
    ("profile edges and hotness", `Quick, test_profile_edges_and_hotness);
    ("profile samples", `Quick, test_profile_samples);
    ("platform lookup", `Quick, test_platform_lookup);
    ("platform compile costs monotone", `Quick, test_platform_compile_costs_monotone);
    ("platform seconds", `Quick, test_platform_seconds);
    ("interp arithmetic", `Quick, test_interp_arithmetic);
    ("interp division by zero", `Quick, test_interp_division_by_zero_is_zero);
    ("interp branch and loop", `Quick, test_interp_branch_and_loop);
    ("interp heap roundtrip", `Quick, test_interp_heap_roundtrip);
    ("interp virtual dispatch", `Quick, test_interp_virtual_dispatch);
    ("interp out of fuel", `Quick, test_interp_out_of_fuel);
    ("interp heap bounds trap", `Quick, test_interp_heap_bounds_trap);
    ("interp stack overflow trap", `Quick, test_interp_stack_overflow_trap);
    ("opt scenario compiles lazily", `Quick, test_opt_scenario_compiles_reachable_only);
    ("adapt starts baseline, promotes hot", `Quick, test_adapt_starts_baseline);
    ("adapt warms up across iterations", `Quick, test_adapt_promotion_improves_later_iterations);
    ("iterations produce identical outputs", `Quick, test_iterations_deterministic_outputs);
    ("fresh VMs deterministic", `Quick, test_vm_runs_deterministic);
    ("runner total = exec + compile", `Quick, test_runner_total_includes_compile);
    ("runner rejects 1 iteration", `Quick, test_runner_rejects_single_iteration);
    ("icache ablation is faster without cache", `Quick, test_icache_disabled_is_faster);
    ("observe returns the checksum", `Quick, test_observe_matches_checksum);
    ("icache records each set's first install", `Quick, test_icache_records_first_install);
  ]

(* --- Ladder scenario (multi-level recompilation extension) --- *)

let test_ladder_promotes_through_levels () =
  let bm = Inltune_workloads.Suites.find "compress" in
  let p = Inltune_workloads.Suites.program bm in
  let vm = Machine.create (Machine.config Machine.Ladder Heuristic.default) Platform.x86 p in
  for _ = 1 to 3 do
    ignore (Machine.run_iteration vm)
  done;
  Alcotest.(check bool) "baseline compiles" true (Machine.baseline_compiles vm > 0);
  Alcotest.(check bool) "O1 promotions happened" true (Machine.o1_compiles vm > 0);
  Alcotest.(check bool) "O2 promotions happened" true (Machine.opt_compiles vm > 0)

let test_ladder_semantics_match_adapt () =
  List.iter
    (fun name ->
      let p = Inltune_workloads.Suites.program (Inltune_workloads.Suites.find name) in
      let run scenario =
        let vm = Machine.create (Machine.config scenario Heuristic.default) Platform.x86 p in
        let it = Machine.run_iteration vm in
        (it.Machine.ret, it.Machine.it_out_hash)
      in
      Alcotest.(check (pair int int)) (name ^ ": ladder = adapt result") (run Machine.Adapt)
        (run Machine.Ladder))
    [ "compress"; "jess"; "ipsixql" ]

let test_o1_quality_between_tiers () =
  let plat = Platform.x86 in
  Alcotest.(check bool) "baseline > o1 > opt" true
    (plat.Platform.baseline_quality > plat.Platform.o1_quality && plat.Platform.o1_quality > 1)

let test_o1_compile_cheaper_than_opt () =
  let plat = Platform.x86 in
  Alcotest.(check bool) "o1 compile cheaper" true
    (Platform.o1_compile_cycles plat ~size:500 < Platform.opt_compile_cycles plat ~size_peak:500)

let ladder_suite =
  [
    ("ladder promotes through levels", `Quick, test_ladder_promotes_through_levels);
    ("ladder preserves semantics", `Quick, test_ladder_semantics_match_adapt);
    ("o1 quality between tiers", `Quick, test_o1_quality_between_tiers);
    ("o1 compile cheaper than opt", `Quick, test_o1_compile_cheaper_than_opt);
  ]

let suite = suite @ ladder_suite

(* --- Regalloc (spill cost model) --- *)

let test_regalloc_small_method_no_spills () =
  let p = program_with_result (fun mb ->
      let a = B.const mb 1 in
      let c = B.const mb 2 in
      let r = B.add mb a c in
      B.ret mb r)
  in
  let ra = Regalloc.run ~phys_regs:8 p.Ir.methods.(p.Ir.main) in
  Alcotest.(check int) "no spills" 0 ra.Regalloc.spilled;
  Alcotest.(check bool) "pressure positive" true (ra.Regalloc.max_pressure >= 1)

let test_regalloc_pressure_forces_spills () =
  (* 20 long-lived values (all defined first, all used at the end) on an
     8-register machine must spill. *)
  let b = B.create "spill" in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let vals = List.init 20 (fun i -> B.const mb i) in
        let acc =
          List.fold_left (fun acc v -> B.add mb acc v) (List.hd vals) (List.tl vals)
        in
        B.ret mb acc)
  in
  B.set_main b main;
  let p = B.finish b in
  let ra = Regalloc.run ~phys_regs:8 p.Ir.methods.(main) in
  Alcotest.(check bool)
    (Printf.sprintf "spills on 8 regs (%d)" ra.Regalloc.spilled)
    true (ra.Regalloc.spilled > 0);
  let ra24 = Regalloc.run ~phys_regs:24 p.Ir.methods.(main) in
  Alcotest.(check bool) "fewer spills with more registers" true
    (ra24.Regalloc.spilled < ra.Regalloc.spilled)

let test_regalloc_inlining_increases_pressure () =
  let bm = Inltune_workloads.Suites.find "jess" in
  let p = Inltune_workloads.Suites.program bm in
  let hot = Array.to_list p.Ir.methods |> List.find (fun m -> m.Ir.mname = "rule_match0") in
  let inlined, _ = Inline.run ~program:p ~heuristic:Heuristic.default hot in
  let before = Regalloc.run ~phys_regs:8 hot in
  let after = Regalloc.run ~phys_regs:8 inlined in
  Alcotest.(check bool) "pressure grows under inlining" true
    (after.Regalloc.max_pressure >= before.Regalloc.max_pressure);
  Alcotest.(check bool) "more vregs" true (after.Regalloc.vregs > before.Regalloc.vregs)

let test_regalloc_rejects_tiny_register_file () =
  Alcotest.(check bool) "phys_regs < 2 rejected" true
    (try
       let p = program_with_result (fun mb -> B.ret mb (B.const mb 1)) in
       ignore (Regalloc.run ~phys_regs:1 p.Ir.methods.(p.Ir.main));
       false
     with Invalid_argument _ -> true)

let test_spill_cost_zero_without_spills () =
  let p = program_with_result (fun mb -> B.ret mb (B.const mb 1)) in
  let m = p.Ir.methods.(p.Ir.main) in
  let ra = Regalloc.run ~phys_regs:8 m in
  Alcotest.(check int) "no surcharge" 0 (Regalloc.block_spill_cost Platform.x86 m ra)

let regalloc_suite =
  [
    ("regalloc: small method fits", `Quick, test_regalloc_small_method_no_spills);
    ("regalloc: pressure forces spills", `Quick, test_regalloc_pressure_forces_spills);
    ("regalloc: inlining increases pressure", `Quick, test_regalloc_inlining_increases_pressure);
    ("regalloc: tiny register file rejected", `Quick, test_regalloc_rejects_tiny_register_file);
    ("regalloc: zero surcharge without spills", `Quick, test_spill_cost_zero_without_spills);
  ]

let suite = suite @ regalloc_suite
