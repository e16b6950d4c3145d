open Inltune_jir
open Inltune_vm
open Inltune_opt
module Suites = Inltune_workloads.Suites
module Corpus = Inltune_workloads.Corpus

(* Differential tests for the flat interpreter: the compile-once lowered
   dispatch loop must be bit-identical to the tree-walking reference
   interpreter on every observable — per-iteration cycles, steps, output
   hashes and logs, profile state, and recompilation activity.  Anything the
   tuner's fitness function can see is compared here, so a divergence that
   would silently skew GA results fails a test instead.

   The comparison is exact integer equality throughout: both interpreters
   simulate the same deterministic machine, so there is no tolerance. *)

(* Everything observable about a VM run: the per-iteration records plus the
   end-of-run machine and profile state. *)
type obs = {
  o_iters : Machine.iteration list;
  o_opt : int;
  o_o1 : int;
  o_base : int;
  o_code_bytes : int;
  o_iacc : int;
  o_imiss : int;
  o_total_calls : int;
  o_interned : int;
  o_samples : int array;      (* per method *)
  o_invocations : int array;  (* per method *)
  o_edges : int array;        (* edge_count over all (owner, callee) pairs *)
}

let with_reference reference f =
  let prev = Machine.reference_enabled () in
  Machine.set_reference reference;
  Fun.protect ~finally:(fun () -> Machine.set_reference prev) f

let observe ~reference cfg plat prog ~iterations =
  with_reference reference (fun () ->
      let vm = Machine.create cfg plat prog in
      let o_iters = List.init iterations (fun _ -> Machine.run_iteration vm) in
      let p = Machine.profile vm in
      let n = Array.length prog.Ir.methods in
      {
        o_iters;
        o_opt = Machine.opt_compiles vm;
        o_o1 = Machine.o1_compiles vm;
        o_base = Machine.baseline_compiles vm;
        o_code_bytes = Machine.code_bytes vm;
        o_iacc = Machine.icache_accesses vm;
        o_imiss = Machine.icache_misses vm;
        o_total_calls = Profile.total_calls p;
        o_interned = Profile.interned_sites p;
        o_samples = Array.init n (Profile.samples p);
        o_invocations = Array.init n (Profile.invocations p);
        o_edges =
          Array.init (n * n) (fun k ->
              Profile.edge_count p ~site_owner:(k / n) ~callee:(k mod n));
      })

let check_obs name a b =
  let ck what = Alcotest.(check int) (name ^ ": " ^ what) in
  List.iteri
    (fun k (x, y) ->
      let it what = Printf.sprintf "iter %d %s" k what in
      ck (it "ret") x.Machine.ret y.Machine.ret;
      ck (it "exec cycles") x.Machine.it_exec_cycles y.Machine.it_exec_cycles;
      ck (it "compile cycles") x.Machine.it_compile_cycles y.Machine.it_compile_cycles;
      ck (it "steps") x.Machine.it_steps y.Machine.it_steps;
      ck (it "out hash") x.Machine.it_out_hash y.Machine.it_out_hash;
      Alcotest.(check (array int)) (name ^ ": " ^ it "outputs") x.Machine.it_outputs
        y.Machine.it_outputs)
    (List.combine a.o_iters b.o_iters);
  ck "opt compiles" a.o_opt b.o_opt;
  ck "o1 compiles" a.o_o1 b.o_o1;
  ck "baseline compiles" a.o_base b.o_base;
  ck "code bytes" a.o_code_bytes b.o_code_bytes;
  ck "icache accesses" a.o_iacc b.o_iacc;
  ck "icache misses" a.o_imiss b.o_imiss;
  ck "total calls" a.o_total_calls b.o_total_calls;
  ck "interned sites" a.o_interned b.o_interned;
  Alcotest.(check (array int)) (name ^ ": samples") a.o_samples b.o_samples;
  Alcotest.(check (array int)) (name ^ ": invocations") a.o_invocations b.o_invocations;
  Alcotest.(check (array int)) (name ^ ": edge counts") a.o_edges b.o_edges

(* Run [prog] under both interpreters and compare every observable. *)
let check_identical name ?(iterations = 2) cfg prog =
  let plat = Platform.x86 in
  let flat = observe ~reference:false cfg plat prog ~iterations in
  let tree = observe ~reference:true cfg plat prog ~iterations in
  check_obs name flat tree

let scenarios = [ Machine.Opt; Machine.Adapt; Machine.Ladder ]

(* The whole corpus (training and test suites) under all three scenarios, at
   a reduced input size so the suite stays fast; the adaptive scenarios get a
   third iteration so post-promotion recompilation is exercised on both
   sides. *)
let test_corpus_all_scenarios () =
  List.iter
    (fun bm ->
      let prog = Suites.program_scaled bm ~scale:25 in
      List.iter
        (fun scen ->
          let iterations = if scen = Machine.Opt then 2 else 3 in
          check_identical
            (Printf.sprintf "%s/%s" bm.Suites.bname (Machine.scenario_name scen))
            ~iterations
            (Machine.config scen Heuristic.default)
            prog)
        scenarios)
    Suites.all

(* Two training programs at the paper's full input size — the exact workload
   the tuner measures. *)
let test_full_size () =
  List.iter
    (fun name ->
      let prog = Suites.program (Suites.find name) in
      List.iter
        (fun scen ->
          check_identical
            (Printf.sprintf "%s@100/%s" name (Machine.scenario_name scen))
            (Machine.config scen Heuristic.default)
            prog)
        scenarios)
    [ "jess"; "db" ]

(* Every ablation flag the experiment driver can flip, each alone and all
   together: the flags change compile decisions and cycle accounting, so
   each combination exercises a different mix of opcodes and tiers. *)
let test_ablations () =
  let prog = Suites.program_scaled (Suites.find "javac") ~scale:30 in
  let cases =
    [
      ("no-inline", fun s h -> Machine.config ~inline_enabled:false s h);
      ("no-opt", fun s h -> Machine.config ~optimize:false s h);
      ("no-icache", fun s h -> Machine.config ~icache_enabled:false s h);
      ("no-hot-path", fun s h -> Machine.config ~hot_path_enabled:false s h);
      ("no-devirt", fun s h -> Machine.config ~guarded_devirt_enabled:false s h);
      ( "all-off",
        fun s h ->
          Machine.config ~inline_enabled:false ~optimize:false ~icache_enabled:false
            ~hot_path_enabled:false ~guarded_devirt_enabled:false s h );
    ]
  in
  List.iter
    (fun (label, mk) ->
      List.iter
        (fun scen ->
          check_identical
            (Printf.sprintf "%s/%s" label (Machine.scenario_name scen))
            ~iterations:3
            (mk scen Heuristic.default)
            prog)
        [ Machine.Opt; Machine.Adapt ])
    cases

(* A non-default heuristic shifts which sites get inlined, changing the
   lowered code shape; run it across all scenarios. *)
let test_aggressive_heuristic () =
  let h =
    {
      Heuristic.default with
      Heuristic.callee_max_size = Heuristic.default.Heuristic.callee_max_size * 2;
      Heuristic.max_inline_depth = Heuristic.default.Heuristic.max_inline_depth + 2;
    }
  in
  let prog = Suites.program_scaled (Suites.find "raytrace") ~scale:30 in
  List.iter
    (fun scen ->
      check_identical
        (Printf.sprintf "aggressive/%s" (Machine.scenario_name scen))
        ~iterations:3
        (Machine.config scen h)
        prog)
    scenarios

(* Random well-formed programs: structural shapes the handwritten suites
   never produce.  Fixed seeds keep the test deterministic. *)
let test_random_programs () =
  for seed = 1 to 25 do
    let prog = Gen_random.program seed in
    check_identical
      (Printf.sprintf "random seed %d" seed)
      (Machine.config Machine.Opt Heuristic.default)
      prog
  done

(* The flags and traps that differ per interpreter must still agree on the
   exception raised: a fuel cutoff mid-run is a recompilation-relevant
   observable for the tuner's failure classification. *)
let test_out_of_fuel_agrees () =
  let prog = Suites.program_scaled (Suites.find "compress") ~scale:30 in
  let run reference =
    with_reference reference (fun () ->
        let cfg = Machine.config ~fuel:10_000 Machine.Opt Heuristic.default in
        let vm = Machine.create cfg Platform.x86 prog in
        match Machine.run_iteration vm with
        | _ -> `Returned
        | exception Machine.Out_of_fuel -> `Fuel (vm.Machine.steps, vm.Machine.exec_cycles))
  in
  let a = run false and b = run true in
  Alcotest.(check bool) "both hit the fuel cutoff identically" true (a = b);
  Alcotest.(check bool) "fuel cutoff reached" true (a <> `Returned)

(* --- steady-state replay ---------------------------------------------- *)

(* Under Opt, [Runner.measure] on the flat interpreter interprets only the
   first iteration and replays the rest; the reference interpreter still
   interprets every one, so it is the oracle for the replay.  Every field
   of the measurement record must agree. *)
let check_measurement name (a : Runner.measurement) (b : Runner.measurement) =
  let ck what get = Alcotest.(check int) (name ^ ": " ^ what) (get a) (get b) in
  ck "total cycles" (fun m -> m.Runner.total_cycles);
  ck "running cycles" (fun m -> m.Runner.running_cycles);
  ck "first exec cycles" (fun m -> m.Runner.first_exec_cycles);
  ck "first compile cycles" (fun m -> m.Runner.first_compile_cycles);
  ck "opt compiles" (fun m -> m.Runner.opt_compiles);
  ck "baseline compiles" (fun m -> m.Runner.baseline_compiles);
  ck "code bytes" (fun m -> m.Runner.code_bytes);
  ck "icache misses" (fun m -> m.Runner.icache_misses);
  ck "icache accesses" (fun m -> m.Runner.icache_accesses);
  ck "steps" (fun m -> m.Runner.steps);
  ck "ret" (fun m -> m.Runner.ret);
  ck "out hash" (fun m -> m.Runner.out_hash)

let check_replay name ~iterations cfg plat prog =
  let measure reference =
    with_reference reference (fun () -> Runner.measure ~iterations cfg plat prog)
  in
  check_measurement name (measure false) (measure true)

(* Every benchmark plus one corpus program per family, at reduced size;
   both platforms (different cache geometry and miss penalty), I-cache on
   and off, and four deciders: the default heuristic, the Table 1 extremes
   (which swing code size and so how many sets the hot code collides in),
   and a policy built against the live profile at each compile (under Opt
   it sees the first iteration's profile only).  The iteration count
   rotates through 2, 3 and 5 with the platform, cache and decider indices,
   so every (program, decider) pair meets all three. *)
let test_replay_matches_reference () =
  let programs =
    List.map (fun bm -> (bm.Suites.bname, Suites.program_scaled bm ~scale:25)) Suites.all
    @ List.map
        (fun f -> (f.Corpus.fname, f.Corpus.fgenerate ~index:0 ~scale:25 ()))
        Corpus.families
  in
  let policy_factory profile =
    Policy.of_custom (fun ~site_owner:_ ~callee ~callee_size ~inline_depth:_ ~caller_size:_ ->
        callee_size <= 12 || (Profile.invocations profile callee > 0 && callee_size <= 40))
  in
  let heuristic h icache_enabled = Machine.config ~icache_enabled Machine.Opt h in
  let deciders =
    [
      ("default", heuristic Heuristic.default);
      ("max", heuristic (Heuristic.of_array (Array.map snd Heuristic.ranges)));
      ("min", heuristic (Heuristic.of_array (Array.map fst Heuristic.ranges)));
      ( "policy",
        fun icache_enabled ->
          Machine.config ~icache_enabled ~policy_factory Machine.Opt Heuristic.default );
    ]
  in
  List.iter
    (fun (prog_name, prog) ->
      List.iteri
        (fun pi plat ->
          List.iteri
            (fun ci icache_enabled ->
              List.iteri
                (fun di (dname, cfg) ->
                  let iterations = [| 2; 3; 5 |].((pi + ci + di) mod 3) in
                  check_replay
                    (Printf.sprintf "%s/%s/icache=%b/%s/x%d" prog_name plat.Platform.pname
                       icache_enabled dname iterations)
                    ~iterations (cfg icache_enabled) plat prog)
                deciders)
            [ true; false ])
        [ Platform.x86; Platform.ppc ])
    programs

let suite =
  [
    Alcotest.test_case "corpus x scenarios identical" `Quick test_corpus_all_scenarios;
    Alcotest.test_case "full-size programs identical" `Quick test_full_size;
    Alcotest.test_case "ablation flags identical" `Quick test_ablations;
    Alcotest.test_case "aggressive heuristic identical" `Quick test_aggressive_heuristic;
    Alcotest.test_case "random programs identical" `Quick test_random_programs;
    Alcotest.test_case "fuel exhaustion agrees" `Quick test_out_of_fuel_agrees;
    Alcotest.test_case "opt replay matches reference" `Quick test_replay_matches_reference;
  ]
