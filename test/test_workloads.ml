open Inltune_jir
open Inltune_vm
open Inltune_opt
module W = Inltune_workloads

(* Per-benchmark integration tests: every workload must validate, run under
   both scenarios, produce identical observable output regardless of the
   heuristic (inlining is semantics-preserving on real programs, not just on
   random ones), and actually exercise the structures it claims to. *)

let all_names =
  [
    "compress"; "jess"; "db"; "javac"; "mpegaudio"; "raytrace"; "jack";
    "antlr"; "fop"; "jython"; "pmd"; "ps"; "ipsixql"; "pseudojbb";
  ]

let test_registry_complete () =
  Alcotest.(check (list string)) "all 14 benchmarks" all_names (W.Suites.names W.Suites.all);
  Alcotest.(check int) "7 training" 7 (List.length W.Suites.spec);
  Alcotest.(check int) "7 test" 7 (List.length W.Suites.dacapo)

let test_find_unknown_rejected () =
  Alcotest.(check bool) "unknown benchmark" true
    (try ignore (W.Suites.find "nope"); false with Invalid_argument _ -> true)

let test_program_cached () =
  let bm = W.Suites.find "db" in
  Alcotest.(check bool) "same physical program" true
    (W.Suites.program bm == W.Suites.program bm)

let test_program_cache_shared_across_domains () =
  (* Four domains asking for a not-yet-generated program at once all get
     the one value the per-program caches downstream key on.  No other test
     uses this scale, so the first request really generates. *)
  let bm = W.Suites.find "mpegaudio" in
  let ready = Atomic.make 0 in
  let fetch () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    W.Suites.program_scaled bm ~scale:37
  in
  let progs = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn fetch)) in
  let first = List.hd progs in
  Alcotest.(check bool) "physically equal" true (List.for_all (fun p -> p == first) progs);
  Alcotest.(check bool) "and cached" true (W.Suites.program_scaled bm ~scale:37 == first)

(* One test per benchmark: semantics preserved across heuristics and
   scenarios (checksum equality), on both platforms' VM (platform only
   changes costs, never results). *)
let semantics_case name =
  let test () =
    let bm = W.Suites.find name in
    let p = W.Suites.program bm in
    (* The fully aggressive corner of the search space is exercised on the
       compact training programs; the wide DaCapo programs use a still
       aggressive but bounded setting so the suite stays fast. *)
    let aggressive =
      if List.exists (fun b -> b.W.Suites.bname = name) W.Suites.spec then
        Heuristic.of_array [| 50; 20; 15; 4000; 400 |]
      else Heuristic.of_array [| 30; 15; 8; 400; 200 |]
    in
    let outcomes =
      List.map
        (fun (scenario, heuristic, plat) ->
          let cfg = Machine.config scenario heuristic in
          let vm = Machine.create cfg plat p in
          let it = Machine.run_iteration vm in
          (it.Machine.ret, it.Machine.it_out_hash))
        [
          (Machine.Opt, Heuristic.never, Platform.x86);
          (Machine.Opt, Heuristic.default, Platform.x86);
          (Machine.Opt, aggressive, Platform.x86);
          (Machine.Adapt, Heuristic.default, Platform.x86);
          (Machine.Opt, Heuristic.default, Platform.ppc);
          (Machine.Adapt, aggressive, Platform.ppc);
        ]
    in
    match outcomes with
    | [] -> assert false
    | first :: rest ->
      List.iteri
        (fun i o ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%s: config %d matches baseline" name (i + 1))
            first o)
        rest
  in
  (name ^ ": semantics invariant under heuristic/scenario/platform", `Slow, test)

let test_benchmarks_have_distinct_checksums () =
  (* Different workloads compute different things. *)
  let sums =
    List.map
      (fun bm ->
        let p = W.Suites.program bm in
        let ret, _ = Runner.observe Platform.x86 p in
        ret)
      W.Suites.all
  in
  let uniq = List.sort_uniq compare sums in
  Alcotest.(check int) "all distinct" (List.length sums) (List.length uniq)

let test_dacapo_more_methods_than_spec () =
  let avg suite =
    let n =
      List.fold_left
        (fun acc bm -> acc + Array.length (W.Suites.program bm).Ir.methods)
        0 suite
    in
    n / List.length suite
  in
  Alcotest.(check bool) "DaCapo wider" true (avg W.Suites.dacapo > 2 * avg W.Suites.spec)

let test_spec_runs_longer_than_dacapo_relative_to_compile () =
  (* The structural property behind the paper's DaCapo result: total time is
     compile-dominated on the test suite under Opt, much less so on SPEC. *)
  let compile_share suite =
    let shares =
      List.map
        (fun bm ->
          let p = W.Suites.program bm in
          let m = Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
          Float.of_int m.Runner.first_compile_cycles /. Float.of_int m.Runner.total_cycles)
        suite
    in
    Inltune_support.Stats.mean (Array.of_list shares)
  in
  Alcotest.(check bool) "DaCapo compile share greater" true
    (compile_share W.Suites.dacapo > compile_share W.Suites.spec)

let test_workloads_use_virtual_dispatch () =
  (* jess and pmd are dispatch benchmarks: they must contain CallVirt. *)
  List.iter
    (fun name ->
      let p = W.Suites.program (W.Suites.find name) in
      let has_virt =
        Array.exists
          (fun m ->
            Array.exists
              (fun blk ->
                Array.exists (fun i -> match i with Ir.CallVirt _ -> true | _ -> false) blk.Ir.instrs)
              m.Ir.blocks)
          p.Ir.methods
      in
      Alcotest.(check bool) (name ^ " uses virtual dispatch") true has_virt)
    [ "jess"; "pmd" ]

let test_workloads_have_recursion () =
  List.iter
    (fun name ->
      let p = W.Suites.program (W.Suites.find name) in
      let cg = Callgraph.build p in
      let recursive =
        Array.exists (fun m -> Callgraph.recursive cg m.Ir.mid) p.Ir.methods
      in
      Alcotest.(check bool) (name ^ " has recursion") true recursive)
    [ "javac"; "raytrace"; "antlr"; "ipsixql" ]

let test_inlining_improves_running_time () =
  (* The headline premise (paper Fig. 1): with the default heuristic, running
     time improves vs no inlining for the classic kernel benchmarks. *)
  List.iter
    (fun name ->
      let p = W.Suites.program (W.Suites.find name) in
      let on = Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p in
      let off =
        Runner.measure
          (Machine.config ~inline_enabled:false Machine.Opt Heuristic.never)
          Platform.x86 p
      in
      Alcotest.(check bool) (name ^ ": inlining speeds up running time") true
        (on.Runner.running_cycles < off.Runner.running_cycles))
    [ "compress"; "db"; "raytrace"; "mpegaudio" ]

let test_band_sizes_present () =
  (* Each benchmark needs callees inside the [ALWAYS_INLINE, CALLEE_MAX]
     band at the Jikes defaults, or the depth/caller parameters would be
     dead knobs (the flaw the paper's Fig. 2 disproves). *)
  List.iter
    (fun bm ->
      let p = W.Suites.program bm in
      let in_band =
        Array.exists
          (fun m ->
            let s = Size.of_method m in
            s >= 11 && s <= 23)
          p.Ir.methods
      in
      Alcotest.(check bool) (bm.W.Suites.bname ^ " has band-size methods") true in_band)
    W.Suites.all

let suite =
  [
    ("registry complete", `Quick, test_registry_complete);
    ("unknown benchmark rejected", `Quick, test_find_unknown_rejected);
    ("programs cached", `Quick, test_program_cached);
    ("benchmarks compute distinct checksums", `Slow, test_benchmarks_have_distinct_checksums);
    ("DaCapo wider than SPEC", `Quick, test_dacapo_more_methods_than_spec);
    ("DaCapo more compile-bound than SPEC", `Slow, test_spec_runs_longer_than_dacapo_relative_to_compile);
    ("dispatch benchmarks use CallVirt", `Quick, test_workloads_use_virtual_dispatch);
    ("recursive benchmarks have recursion", `Quick, test_workloads_have_recursion);
    ("inlining improves running time", `Slow, test_inlining_improves_running_time);
    ("band-size methods present everywhere", `Quick, test_band_sizes_present);
  ]
  @ List.map semantics_case all_names

(* --- input scaling --- *)

let test_scaled_program_runs_longer () =
  let bm = W.Suites.find "compress" in
  let small = W.Suites.program_scaled bm ~scale:25 in
  let big = W.Suites.program_scaled bm ~scale:200 in
  let steps p =
    (Runner.measure (Machine.config Machine.Opt Heuristic.default) Platform.x86 p).Runner.steps
  in
  Alcotest.(check bool) "more scale, more steps" true (steps big > 2 * steps small)

let test_scaled_program_same_shape () =
  (* Scaling changes loop trip counts, never the code structure. *)
  let bm = W.Suites.find "jess" in
  let a = W.Suites.program_scaled bm ~scale:10 in
  let b = W.Suites.program bm in
  Alcotest.(check int) "same method count" (Array.length a.Ir.methods) (Array.length b.Ir.methods);
  Alcotest.(check int) "same class count" (Array.length a.Ir.classes) (Array.length b.Ir.classes)

let test_scaled_default_is_cached_program () =
  let bm = W.Suites.find "db" in
  Alcotest.(check bool) "scale 100 = default program" true
    (W.Suites.program_scaled bm ~scale:100 == W.Suites.program bm)

let test_scaled_programs_validate () =
  List.iter
    (fun bm ->
      List.iter
        (fun scale ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s@%d validates" bm.W.Suites.bname scale)
            []
            (List.map
               (fun e -> e.Validate.where ^ ": " ^ e.Validate.what)
               (Validate.check (W.Suites.program_scaled bm ~scale))))
        [ 10; 300 ])
    [ W.Suites.find "compress"; W.Suites.find "ipsixql" ]

let scale_suite =
  [
    ("scaling increases work", `Quick, test_scaled_program_runs_longer);
    ("scaling preserves program shape", `Quick, test_scaled_program_same_shape);
    ("scale 100 is the cached default", `Quick, test_scaled_default_is_cached_program);
    ("scaled programs validate", `Quick, test_scaled_programs_validate);
  ]

(* --- generated corpus --- *)

let corpus name =
  match W.Corpus.find_opt name with
  | Some bm -> bm
  | None -> Alcotest.failf "corpus program %s not registered" name

let test_corpus_registry () =
  Alcotest.(check int) "110 programs" 110 (List.length W.Corpus.all);
  Alcotest.(check int) "names unique" 110
    (List.length
       (List.sort_uniq compare (List.map (fun bm -> bm.W.Suites.bname) W.Corpus.all)));
  Alcotest.(check bool) "family counts sum" true
    (List.fold_left (fun acc f -> acc + f.W.Corpus.fcount) 0 W.Corpus.families = 110);
  ignore (corpus "corpus_chain00");
  ignore (corpus "corpus_phase04");
  Alcotest.(check bool) "out-of-range index misses" true
    (W.Corpus.find_opt "corpus_phase05" = None);
  (* The corpus namespace is disjoint from the hand-modeled suites. *)
  List.iter
    (fun bm ->
      Alcotest.(check bool) (bm.W.Suites.bname ^ " is not a corpus name") true
        (W.Corpus.find_opt bm.W.Suites.bname = None))
    W.Suites.all

let test_corpus_programs_validate () =
  List.iter
    (fun bm ->
      Alcotest.(check (list string))
        (bm.W.Suites.bname ^ " validates")
        []
        (List.map
           (fun e -> e.Validate.where ^ ": " ^ e.Validate.what)
           (Validate.check (bm.W.Suites.generate ()))))
    W.Corpus.all

(* One program per family, regenerated twice: the corpus promise is
   byte-identical programs for the same name, in any process. *)
let corpus_sample =
  [ "corpus_chain17"; "corpus_dispatch23"; "corpus_recur11"; "corpus_sweep07";
    "corpus_phase02" ]

let test_corpus_deterministic_serial () =
  List.iter
    (fun name ->
      let bm = corpus name in
      Alcotest.(check string) (name ^ " regenerates byte-identically")
        (Text.to_string (bm.W.Suites.generate ()))
        (Text.to_string (bm.W.Suites.generate ())))
    corpus_sample

let test_corpus_deterministic_under_pool () =
  (* Parallel generation on pool domains must produce the same bytes as
     serial generation — no hidden global state in the generators. *)
  let serial =
    List.map (fun name -> Text.to_string ((corpus name).W.Suites.generate ())) corpus_sample
  in
  let pool = Inltune_support.Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Inltune_support.Pool.shutdown pool)
    (fun () ->
      let task =
        Inltune_support.Pool.submit pool
          (fun name -> Text.to_string ((corpus name).W.Suites.generate ()))
          (Array.of_list corpus_sample)
      in
      let results = Inltune_support.Pool.await task in
      List.iteri
        (fun i expect ->
          match results.(i) with
          | Ok got ->
            Alcotest.(check string)
              (List.nth corpus_sample i ^ " identical under Pool") expect got
          | Error e -> raise e)
        serial)

let test_corpus_semantics_preserved () =
  (* Same checksum whatever the inliner does — corpus programs are real
     programs, and scaling stretches work without changing shape. *)
  List.iter
    (fun name ->
      let bm = corpus name in
      let p = W.Suites.program bm in
      let run heuristic scen =
        let m = Runner.measure (Machine.config scen heuristic) Platform.x86 p in
        (m.Runner.ret, m.Runner.out_hash)
      in
      let base = run Heuristic.default Machine.Opt in
      Alcotest.(check (pair int int)) (name ^ " checksum, never-inline") base
        (run Heuristic.never Machine.Opt);
      Alcotest.(check (pair int int)) (name ^ " checksum, adapt") base
        (run Heuristic.default Machine.Adapt);
      let scaled = W.Suites.program_scaled bm ~scale:30 in
      Alcotest.(check int) (name ^ " scaled keeps method count")
        (Array.length p.Ir.methods)
        (Array.length scaled.Ir.methods))
    corpus_sample

let corpus_suite =
  [
    ("corpus registry", `Quick, test_corpus_registry);
    ("corpus programs validate", `Slow, test_corpus_programs_validate);
    ("corpus generation deterministic", `Quick, test_corpus_deterministic_serial);
    ("corpus deterministic under Pool", `Quick, test_corpus_deterministic_under_pool);
    ("corpus semantics preserved", `Slow, test_corpus_semantics_preserved);
  ]

let suite =
  suite @ scale_suite @ corpus_suite
  @ [ ("program cache shared across domains", `Quick, test_program_cache_shared_across_domains) ]
