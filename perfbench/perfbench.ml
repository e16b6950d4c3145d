(* One repetition of one benchmark workload, printed as one JSON line.

   perfbench.exe tune-opt   --seed N [--trace 0|1] [--smoke] [--setup-only]
                            [--profile-first]
   perfbench.exe tune-adapt --seed N ...
   perfbench.exe serve-open --seed N [--trace 0|1] [--smoke] [--setup-only]
                            [--rates R1,R2,...]
   perfbench.exe serve-gen  --seed N --socket PATH --phase K --t0 EPOCH
                            [--rates ...] [--smoke]   (one phase's load generator)

   [run.py] builds this program, repeats it for the requested time and
   reduces the repetitions to medians; [selftest.py] runs it with --smoke,
   a tiny budget.  The program under test is driven
   only through its public entry points (Suites/Corpus, Measure,
   Tuner.tune/tune_plan, Server.start + Client, Pool, Prof, Metric); every
   input is derived from --seed.  With --trace 1 the profiler is switched on
   around the workload's main call and the per-layer numbers are read back
   from Prof.snapshot and the metric registry; the benchmark's own spans are
   kept in memory and written to perfbench/out at exit, next to folded
   stacks. *)

module Json = Inltune_obs.Json
module Prof = Inltune_obs.Prof
module Metric = Inltune_obs.Metric
module Pool = Inltune_support.Pool
module Rng = Inltune_support.Rng
module Stats = Inltune_support.Stats
module Suites = Inltune_workloads.Suites
module Corpus = Inltune_workloads.Corpus
module Machine = Inltune_vm.Machine
module Runner = Inltune_vm.Runner
module Platform = Inltune_vm.Platform
module Heuristic = Inltune_opt.Heuristic
module Plan = Inltune_opt.Plan
module Tuner = Inltune_core.Tuner
module Measure = Inltune_core.Measure
module Fitcache = Inltune_core.Fitcache
module Params = Inltune_core.Params
module Evolve = Inltune_ga.Evolve
module Server = Inltune_serve.Server
module Client = Inltune_serve.Client
module Proto = Inltune_serve.Proto

(* ---- options ------------------------------------------------------------ *)

let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else ""

let flag name =
  let rec go i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then
      if i + 1 < Array.length Sys.argv then Some Sys.argv.(i + 1) else None
    else go (i + 1)
  in
  go 2

let has name = Array.exists (( = ) name) Sys.argv

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let seed =
  match flag "--seed" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> die "bad --seed %S" s)
  | None -> if mode = "" then 0 else die "--seed is required"

let traced = flag "--trace" = Some "1"
let smoke = has "--smoke"
let setup_only = has "--setup-only"
let out_dir = "perfbench/out"

(* ---- small statistics --------------------------------------------------- *)

let now = Unix.gettimeofday

(* Nearest-rank percentile of a list ([p] in [0, 100]); nan when empty,
   which only a run that already failed can produce. *)
let pct p = function [] -> nan | xs -> Stats.percentile (Array.of_list xs) p

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Peak resident set of this process (Linux VmHWM), in MB. *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.)
      | _ -> scan ()
      | exception End_of_file -> 0.0
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> 0.0

let ensure_dir d =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go d

(* ---- the benchmark's own spans ------------------------------------------ *)

(* Spans around each call the benchmark makes into a layer, recorded only
   with --trace 1, kept in memory and written as JSONL at exit.  They also
   go through Prof.span so the folded stacks carry the same names. *)
type span = { id : int; parent : int; name : string; req : string; t0 : float; t1 : float }

let spans = ref []
let next_span = ref 0
let cur_span = ref 0

let span ?(req = "") name f =
  if not traced then f ()
  else begin
    incr next_span;
    let id = !next_span and parent = !cur_span in
    cur_span := id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> cur_span := parent)
      (fun () ->
        let r = Prof.span name f in
        spans := { id; parent; name; req; t0; t1 = now () } :: !spans;
        r)
  end

let record_span ~name ~req ~t0 ~t1 =
  incr next_span;
  spans := { id = !next_span; parent = 0; name; req; t0; t1 } :: !spans

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let span_json s =
  Json.encode
    (Json.Obj
       [
         ("id", Json.Num (float_of_int s.id));
         ("parent", Json.Num (float_of_int s.parent));
         ("name", Json.Str s.name);
         ("req", Json.Str s.req);
         ("start_s", Json.Num s.t0);
         ("end_s", Json.Num s.t1);
       ])

(* ---- per-layer readings ------------------------------------------------- *)

let counter name = Metric.value (Metric.counter name)

let counter_names =
  [
    "measure.simulations"; "fitness.sig_hits"; "fitness.sig_misses"; "fitness.unique_plans";
    "fitness.cross_tenant_hits"; "pool.busy_ns"; "pool.idle_ns"; "pool.tasks_stolen";
  ]

let counters () = List.map (fun n -> (n, counter n)) counter_names

let delta before after name = float_of_int (List.assoc name after - List.assoc name before)

(* Calls, cumulative and self seconds of every Prof node with this label,
   whatever its path (pool workers root their spans at the task). *)
let by_label snap label =
  List.fold_left
    (fun (c, t, s) n ->
      if n.Prof.n_label = label then (c + n.Prof.n_calls, t +. n.Prof.n_total_s, s +. n.Prof.n_self_s)
      else (c, t, s))
    (0, 0.0, 0.0) snap

let passes =
  [
    "inline"; "inline_leaves"; "inline_hot"; "inline_region"; "constprop"; "copyprop"; "cse"; "dce";
    "cleanup"; "guarded_devirt";
  ]

(* Interpreter steps of every fresh simulation in the window: the fitness
   cache's on-disk tier appends one record per unique measurement. *)
let steps_in_file path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in path in
    let total = ref 0 in
    (try
       while true do
         match Json.parse (input_line ic) with
         | Ok j -> (
           (* fields are decimal strings, exact for 63-bit values *)
           match Option.bind (Option.bind (Json.member "steps" j) Json.to_string) int_of_string_opt with
           | Some s -> total := !total + s
           | None -> ())
         | Error _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !total
  end

type window = {
  w_before : (string * int) list;
  w_words : float;
  w_t0 : float;
  w_cache : string;
}

(* Open a profiled window around the workload's main call. *)
let open_window () =
  ensure_dir out_dir;
  let cache = Filename.concat out_dir (Printf.sprintf "fitcache-%d.jsonl" (Unix.getpid ())) in
  if Sys.file_exists cache then Sys.remove cache;
  Fitcache.set_file (Some cache);
  Prof.reset ();
  Prof.enable ();
  { w_before = counters (); w_words = (Gc.quick_stat ()).Gc.minor_words; w_t0 = now (); w_cache = cache }

(* Close it and turn what Prof and the registry saw into per-layer metrics. *)
let close_window w =
  let wall = now () -. w.w_t0 in
  (* quick_stat sums the minor words of every domain, pool workers included *)
  let words = (Gc.quick_stat ()).Gc.minor_words -. w.w_words in
  Prof.disable ();
  Fitcache.set_file None;
  let after = counters () in
  let steps = steps_in_file w.w_cache in
  (try Sys.remove w.w_cache with Sys_error _ -> ());
  let d = delta w.w_before after in
  let snap = Prof.snapshot () in
  let sims = d "measure.simulations" in
  let hits = d "fitness.sig_hits" and misses = d "fitness.sig_misses" in
  let _, _, eval_self = by_label snap "fitness.eval" in
  let _, exec_total, exec_self = by_label snap "vm.execute" in
  let compiles, compile_total, compile_self = by_label snap "vm.compile" in
  let busy = d "pool.busy_ns" and idle = d "pool.idle_ns" in
  let sim = Metric.snapshot (Metric.histogram "vm.sim_wall_us") in
  let pass_metrics =
    List.concat_map
      (fun p ->
        let c, _, s = by_label snap ("opt.pass." ^ p) in
        [ ("opt." ^ p ^ ".self_s", s); ("opt." ^ p ^ ".calls", float_of_int c) ])
      passes
  in
  ( [
      ("measure.simulations", sims);
      ("measure.sims_per_s", ratio sims wall);
      ("fitcache.sig_hits", hits);
      ("fitcache.sig_misses", misses);
      ("fitcache.hit_ratio", ratio hits (hits +. misses));
      ("fitcache.unique_plans", d "fitness.unique_plans");
      ("fitcache.eval_self_s", eval_self);
      ("fitcache.cross_tenant_hits", d "fitness.cross_tenant_hits");
    ]
    @ pass_metrics
    @ [
        ("vm.compiles", float_of_int compiles);
        ("vm.compiles_per_sim", ratio (float_of_int compiles) sims);
        ("vm.compile_s", compile_total);
        ("vm.compile_self_s", compile_self);
        ("vm.compile_share", ratio compile_total exec_total);
        ("vm.execute_self_s", exec_self);
        ("vm.steps", float_of_int steps);
        ("vm.steps_per_s", ratio (float_of_int steps) exec_self);
        ("vm.minor_words_per_step", ratio words (float_of_int steps));
        ("vm.sim_p50_ms", if sim.Metric.hs_count > 0 then sim.Metric.hs_p50 /. 1000. else 0.0);
        ("vm.sim_p99_ms", if sim.Metric.hs_count > 0 then sim.Metric.hs_p99 /. 1000. else 0.0);
        ("pool.utilization", ratio busy (busy +. idle));
        ("pool.tasks_stolen", d "pool.tasks_stolen");
      ],
    Prof.folded () )

(* ---- workload inputs ---------------------------------------------------- *)

let ga_seed = 42
let platform = Platform.x86


let family_members fname =
  let pfx = "corpus_" ^ fname in
  List.filter
    (fun b ->
      String.length b.Suites.bname >= String.length pfx
      && String.sub b.Suites.bname 0 (String.length pfx) = pfx)
    Corpus.all

let find_bench name =
  match Corpus.find_opt name with Some b -> b | None -> Suites.find name

let all_families = List.map (fun f -> f.Corpus.fname) Corpus.families

(* [per] programs from each family, drawn from the seed, avoiding [exclude]. *)
let draw_corpus rng ~families ~per ~exclude =
  List.concat_map
    (fun f ->
      let pool =
        Array.of_list
          (List.filter (fun b -> not (List.memq b exclude)) (family_members f))
      in
      Rng.shuffle_in_place rng pool;
      Array.to_list (Array.sub pool 0 (min per (Array.length pool))))
    families

let names bms = Json.List (List.map (fun b -> Json.Str b.Suites.bname) bms)

(* ---- shared phases ------------------------------------------------------ *)

(* Program generation plus the Jikes-default baselines every ratio divides
   by: the set-up a user pays before the first search step. *)
let setup ~scenario programs =
  let t0 = now () in
  span "bench.gen" (fun () -> List.iter (fun b -> ignore (Suites.program b)) programs);
  let t1 = now () in
  span "bench.baselines" (fun () ->
      List.iter (fun b -> ignore (Measure.run_default ~scenario ~platform b)) programs);
  let t2 = now () in
  (t1 -. t0, t2 -. t1)

type heldout = {
  total : float;
  running : float;
  icache_miss_ratio : float;
  code_bytes : float;
  mismatches : string list;
}

(* The no-inlining reference interpreter's answer for a program: the
   tree-walking VM, no inliner, no flat code — never the compiler under
   test.  (Runner.observe returns the printed values but not their hash, so
   the hash comes from a two-iteration Runner.measure in the same mode.) *)
let reference bm =
  let prog = Suites.program bm in
  Machine.set_reference true;
  Fun.protect
    ~finally:(fun () -> Machine.set_reference false)
    (fun () ->
      let ret, _ = Runner.observe platform prog in
      let m =
        Runner.measure ~iterations:2
          (Machine.config ~inline_enabled:false Machine.Opt Heuristic.never)
          platform prog
      in
      (ret, m.Runner.ret, m.Runner.out_hash))

(* The winner against the default on unseen programs (the paper's
   protocol), then every winner result against the reference. *)
let evaluate_heldout ~scenario ?plan ~heuristic programs =
  let rows =
    List.map
      (fun bm ->
        span ~req:bm.Suites.bname "bench.heldout" (fun () ->
            let w = Measure.run ?plan ~scenario ~platform ~heuristic bm in
            let d = Measure.run_default ~scenario ~platform bm in
            (bm, w, d)))
      programs
  in
  let mismatches =
    List.filter_map
      (fun (bm, (w : Measure.times), _) ->
        let r_obs, r_ret, r_hash = reference bm in
        if r_obs = w.Measure.raw.Runner.ret && r_ret = w.Measure.raw.Runner.ret
           && r_hash = w.Measure.raw.Runner.out_hash
        then None
        else Some bm.Suites.bname)
      rows
  in
  let sum f = List.fold_left (fun a (_, w, _) -> a +. f w) 0.0 rows in
  let geomean f = Stats.geomean (Array.of_list (List.map (fun (_, w, d) -> f (w, d)) rows)) in
  {
    total = geomean (fun (w, d) -> w.Measure.total /. d.Measure.total);
    running = geomean (fun (w, d) -> w.Measure.running /. d.Measure.running);
    icache_miss_ratio =
      ratio
        (sum (fun w -> float_of_int w.Measure.raw.Runner.icache_misses))
        (sum (fun w -> float_of_int w.Measure.raw.Runner.icache_accesses));
    code_bytes = sum (fun w -> float_of_int w.Measure.raw.Runner.code_bytes);
    mismatches;
  }

let provenance extra =
  Json.Obj
    ([
       ("seed", Json.Num (float_of_int seed));
       ("ocaml", Json.Str Sys.ocaml_version);
       ("pool_domains", Json.Num (float_of_int (Pool.default_domains ())));
       ("ga_seed", Json.Num (float_of_int ga_seed));
     ]
    @ extra)

let num x = Json.Num x
let nums kvs = Json.Obj (List.map (fun (k, v) -> (k, num v)) kvs)

(* One timed sample of what tracing may slow down. *)
let sample ~traced v = Json.Obj [ ("value", num v); ("traced", Json.Bool traced) ]

(* Write the traced run's artifacts and print the repetition's line:
   [searches] are the search-call samples, [basis] the samples that
   compare traced with untraced work, [windows] the per-layer readings of
   each traced window. *)
let emit ~fields ~searches ~basis ~windows ~folded =
  if traced then begin
    ensure_dir out_dir;
    let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" mode seed) in
    write_lines (base ^ ".folded") folded;
    write_lines (base ^ ".spans.jsonl") (List.rev_map span_json !spans)
  end;
  print_endline
    (Json.encode
       (Json.Obj
          (fields
          @ [
              ("searches", Json.List searches);
              ("basis", Json.List basis);
              ("layers", Json.List (List.map nums windows));
              ("peak_rss_mb", num (peak_rss_mb ()));
            ])))

(* ---- tune-opt / tune-adapt ---------------------------------------------- *)

type search = {
  winner : Heuristic.t;
  winner_plan : Plan.t option;
  fitness : float;
  evaluations : int;
  failures : int;
  stopped : string option;
}

(* Searches per process: a fixed count, so that peak memory always covers
   the same work.  With --trace 1 one of the two is profiled: the second,
   or the first with --profile-first (run.py alternates). *)
let searches = 2

let tune_workload ~adapt =
  (* A smoke's counters must repeat exactly: on one domain no two workers
     race to simulate the same fresh key. *)
  if smoke then Pool.set_default_domains 1;
  let rng = Rng.create seed in
  let train, heldout_set, id, budget =
    if adapt then begin
      let extra =
        draw_corpus rng ~families:[ "chain"; "dispatch"; "recur" ] ~per:1 ~exclude:[]
      in
      let held = draw_corpus rng ~families:all_families ~per:2 ~exclude:extra in
      ( Suites.spec @ extra,
        Suites.dacapo @ held,
        Tuner.Adapt_x86,
        if smoke then { Tuner.pop = 4; gens = 2; seed = ga_seed }
        else { Tuner.pop = 10; gens = 6; seed = ga_seed } )
    end
    else begin
      let held = draw_corpus rng ~families:all_families ~per:2 ~exclude:[] in
      ( Suites.spec,
        Suites.dacapo @ held,
        Tuner.Opt_tot_x86,
        if smoke then { Tuner.pop = 4; gens = 2; seed = ga_seed }
        else Tuner.default_budget )
    end
  in
  let scenario = (Tuner.spec_of id).Tuner.scenario in
  let t_start = now () in
  let gen_s, default_s = setup ~scenario (train @ heldout_set) in
  let setup_s = now () -. t_start in
  if setup_only then begin
    print_endline (Json.encode (Json.Obj [ ("setup_s", num setup_s) ]));
    exit 0
  end;
  (* One fixed-budget search on a cleared fitness cache, so every
     repetition does the same simulations (the default baselines stay
     memoized: they are set-up). *)
  let search ~profiled =
    Fitcache.clear ();
    let marks = ref [] in
    let on_generation (_ : Evolve.progress) = marks := now () :: !marks in
    let window = if profiled then Some (open_window ()) else None in
    let t0 = now () in
    let s =
      span "bench.tune" (fun () ->
          if adapt then begin
            let o = Tuner.tune_plan ~budget ~on_generation ~suite:train id in
            {
              winner = o.Tuner.p_heuristic;
              winner_plan = Some o.Tuner.p_plan;
              fitness = o.Tuner.p_fitness;
              evaluations = o.Tuner.p_ga.Evolve.evaluations;
              failures = o.Tuner.p_ga.Evolve.failures;
              stopped = o.Tuner.p_degraded;
            }
          end
          else begin
            let o = Tuner.tune ~budget ~on_generation ~suite:train id in
            {
              winner = o.Tuner.heuristic;
              winner_plan = None;
              fitness = o.Tuner.fitness;
              evaluations = o.Tuner.ga.Evolve.evaluations;
              failures = o.Tuner.ga.Evolve.failures;
              stopped = o.Tuner.degraded;
            }
          end)
    in
    let wall = now () -. t0 in
    let gens =
      let rec diffs prev = function [] -> [] | m :: rest -> (m -. prev) :: diffs m rest in
      diffs t0 (List.rev !marks)
    in
    let layers =
      Option.map
        (fun w ->
          let core, folded = close_window w in
          ( [ ("ga.evaluations", float_of_int s.evaluations); ("ga.gen_s_p50", pct 50.0 gens) ]
            @ core,
            folded ))
        window
    in
    (s, wall, layers)
  in
  let first = if has "--profile-first" then 0 else 1 in
  let runs = List.init searches (fun i -> search ~profiled:(traced && i mod 2 = first)) in
  let s, _, _ = List.hd runs in
  let disagree =
    List.length
      (List.filter (fun (s', _, _) -> s'.fitness <> s.fitness || s'.winner <> s.winner) runs)
  in
  if disagree > 0 then prerr_endline "perfbench: same-seed searches disagree";
  let h = evaluate_heldout ~scenario ?plan:s.winner_plan ~heuristic:s.winner heldout_set in
  let failed =
    disagree + List.length h.mismatches
    + List.fold_left
        (fun a (s', _, _) -> a + s'.failures + match s'.stopped with Some _ -> 1 | None -> 0)
        0 runs
  in
  List.iter (fun n -> Printf.eprintf "perfbench: output mismatch on %s\n%!" n) h.mismatches;
  let profiled = List.filter_map (fun (_, _, l) -> l) runs in
  let windows =
    List.map
      (fun (core, _) ->
        [ ("workloads.gen_s", gen_s); ("measure.default_s", default_s) ]
        @ core
        @ [ ("vm.icache_miss_ratio", h.icache_miss_ratio); ("vm.code_bytes", h.code_bytes) ])
      profiled
  in
  let samples = List.map (fun (_, wall, l) -> sample ~traced:(l <> None) wall) runs in
  emit ~searches:samples ~basis:samples ~windows
    ~folded:(match profiled with (_, f) :: _ -> f | [] -> [])
    ~fields:
      [
        ("workload", Json.Str mode);
        ("setup_s", num setup_s);
        ("train_fitness", num s.fitness);
        ("heldout_total", num h.total);
        ("heldout_running", num h.running);
        (* each search, one held-out run per program *)
        ("attempted", num (float_of_int (List.length runs + List.length heldout_set)));
        ("failed", num (float_of_int failed));
        ("winner", Json.Str (Heuristic.to_string s.winner));
        ( "provenance",
          provenance
            [
              ("pop", num (float_of_int budget.Tuner.pop));
              ("gens", num (float_of_int budget.Tuner.gens));
              ("train", names train);
              ("heldout", names heldout_set);
            ] );
      ]

(* ---- serve-open ---------------------------------------------------------- *)

(* Open-loop schedule: one phase per rate, each the same [phase_requests]
   requests with Poisson arrivals, run by its own generator process once the
   previous phase's replies are all in and the fitness cache is cleared, so
   every phase asks for the same simulations and no backlog leaks into the
   next.  The ladder brackets the daemon's saturating rate on a 2-core host
   (perfbench/README.md has the measurements); --rates overrides it, to
   measure the ladder again. *)
let rates =
  match flag "--rates" with
  | Some s -> (
    try List.map float_of_string (String.split_on_char ',' s)
    with Failure _ -> die "bad --rates %S (comma-separated req/s)" s)
  | None -> if smoke then [ 10.0; 20.0 ] else [ 20.0; 40.0; 60.0 ]
let nominal_rate = if smoke then 10.0 else 20.0
let p90_limit_ms = 250.0
let serve_iterations = 10
let tenants = 8
let connections = 2
let served_tunes = 5

type sreq = {
  idx : int;
  phase : int;
  due : float;  (* seconds after the generator's start *)
  bench : string;
  scen : string;
  heur : string;
  tenant : int;
  conn : int;
}

(* The protocol's "k=v,..." parameter overrides for a Table 1 genome. *)
let heuristic_string genes =
  String.concat ","
    (Array.to_list (Array.mapi (fun i k -> Printf.sprintf "%s=%d" k genes.(i)) Heuristic.param_names))

(* The programs a request may name: SPEC, DaCapo+JBB and a fixed corpus
   sample; and the (program, scenario) mix of every phase. *)
let serve_programs =
  Suites.spec @ Suites.dacapo
  @ draw_corpus (Rng.create 0) ~families:all_families ~per:2 ~exclude:[]

let serve_mix =
  Array.of_list
    (List.concat_map
       (fun b -> [ (b.Suites.bname, "opt"); (b.Suites.bname, "adapt") ])
       serve_programs)

(* Every second request is fresh, every other one repeats an earlier key
   of its phase under another tenant.  The fresh requests take the mix in a
   fixed shuffled order (the whole of it and two more from a second round;
   a prefix in a smoke), each with its own Table 1 heuristic, and the
   requests take the connections in pairs, in turn.  Every phase sends the
   same requests on the same arrival pattern, scaled to its rate.  So every
   phase, at every seed, asks for the same simulations in the same order;
   the seed sets the arrival times (Poisson, rescaled so that a phase lasts
   exactly [phase_requests / rate] seconds), which earlier key each repeat
   names and the tenants. *)
let phase_requests = if smoke then 16 else 100

let fresh_heuristic f =
  let rng = Rng.create (f + 1) in
  heuristic_string (Array.map (fun (lo, hi) -> Rng.range rng lo hi) Heuristic.ranges)

(* The request stream, a pure function of the seed (the daemon process and
   the generator processes build it independently). *)
let serve_stream () =
  let order =
    let rng = Rng.create 0 and round () = Array.copy serve_mix in
    let a = round () and b = round () in
    Rng.shuffle_in_place rng a;
    Rng.shuffle_in_place rng b;
    Array.append a b
  in
  let rng = Rng.create seed in
  let gaps = Array.init phase_requests (fun _ -> -.log (1.0 -. Rng.float rng 1.0)) in
  let scale = float_of_int phase_requests /. Array.fold_left ( +. ) 0.0 gaps in
  let base = Array.make phase_requests None and t = ref 0.0 in
  for j = 0 to phase_requests - 1 do
    t := !t +. (gaps.(j) *. scale);
    let conn = j / 2 mod connections in
    let r =
      if j mod 2 = 1 then begin
        let k = Option.get base.(2 * Rng.int rng ((j + 1) / 2)) in
        { k with idx = j; due = !t; conn;
                 tenant = (k.tenant + 1 + Rng.int rng (tenants - 1)) mod tenants }
      end
      else begin
        let bench, scen = order.(j / 2) in
        { idx = j; phase = 0; due = !t; bench; scen; heur = fresh_heuristic (j / 2);
          tenant = Rng.int rng tenants; conn }
      end
    in
    base.(j) <- Some r
  done;
  Array.concat
    (List.mapi
       (fun phase rate ->
         Array.map
           (fun r ->
             let r = Option.get r in
             { r with idx = (phase * phase_requests) + r.idx; phase; due = r.due /. rate })
           base)
       rates)

let request_line r =
  Json.encode
    (Json.Obj
       [
         ("id", Json.Str (Printf.sprintf "r%d" r.idx));
         ("tenant", Json.Str (Printf.sprintf "t%d" r.tenant));
         ("op", Json.Str "measure");
         ("bench", Json.Str r.bench);
         ("scenario", Json.Str r.scen);
         ("heuristic", Json.Str r.heur);
         ("iterations", num (float_of_int serve_iterations));
       ])

(* The load generator of one phase (its own process): pipelined
   connections, each request written at its due time whatever the replies
   are doing, replies matched back by id.  Prints one JSON line per
   request. *)
let generator () =
  let socket = match flag "--socket" with Some s -> s | None -> die "--socket is required" in
  let t0 =
    match Option.bind (flag "--t0") float_of_string_opt with
    | Some t -> t
    | None -> die "--t0 is required"
  in
  let phase =
    match Option.bind (flag "--phase") int_of_string_opt with
    | Some k -> k
    | None -> die "--phase is required"
  in
  let all = serve_stream () in
  let n = Array.length all in
  let reqs = Array.of_list (List.filter (fun r -> r.phase = phase) (Array.to_list all)) in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX socket);
    fd
  in
  let conns = Array.init connections (fun _ -> connect ()) in
  let sent = Array.make n nan and recv = Array.make n nan and replies = Array.make n "" in
  let reader c =
    let ic = Unix.in_channel_of_descr conns.(c) in
    let expected = Array.fold_left (fun a r -> if r.conn = c then a + 1 else a) 0 reqs in
    let got = ref 0 in
    (try
       while !got < expected do
         let line = input_line ic in
         let t = now () in
         match Json.parse line with
         | Ok j -> (
           match Option.bind (Json.member "id" j) Json.to_string with
           | Some id when String.length id > 1 -> (
             match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
             | Some i when i >= 0 && i < n ->
               recv.(i) <- t;
               replies.(i) <- line;
               incr got
             | _ -> ())
           | _ -> ())
         | Error _ -> ()
       done
     with End_of_file | Sys_error _ -> ())
  in
  let readers = Array.init connections (fun c -> Thread.create reader c) in
  Array.iter
    (fun r ->
      let wait = t0 +. r.due -. now () in
      if wait > 0.0 then Thread.delay wait;
      let b = Bytes.of_string (request_line r ^ "\n") in
      sent.(r.idx) <- now ();
      let fd = conns.(r.conn) in
      let rec go off =
        if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
      in
      go 0)
    reqs;
  Array.iter Thread.join readers;
  Array.iter Unix.close conns;
  Array.iter
    (fun r ->
      let i = r.idx in
      print_endline
        (Json.encode
           (Json.Obj
              [
                ("i", num (float_of_int i));
                ("due", num (t0 +. r.due));
                ("sent", num sent.(i));
                ("recv", if Float.is_nan recv.(i) then Json.Null else num recv.(i));
                ("reply", Json.Str replies.(i));
              ])))
    reqs

type served = {
  s_req : sreq;
  s_due : float;
  s_sent : float;
  s_recv : float option;
  s_reply : Json.t option;
}

let status_of = function
  | Some j -> Option.value (Option.bind (Json.member "status" j) Json.to_string) ~default:"?"
  | None -> "missing"

let reply_num j k = Option.bind (Json.member k j) Json.to_float

let latency_ms s = match s.s_recv with Some r -> (r -. s.s_due) *. 1000. | None -> infinity

(* Median latency of a phase's first and last quarter of requests. *)
let quarters xs =
  let n = List.length xs in
  let q = max 1 (n / 4) in
  let lat keep = pct 50.0 (List.map latency_ms (List.filteri (fun i _ -> keep i) xs)) in
  (lat (fun i -> i < q), lat (fun i -> i >= n - q))

(* A phase meets the limit when every reply is ok, its p90 latency is
   within the limit, and the backlog did not grow: the median of its last
   quarter is within half the limit of its first quarter's. *)
let phase_ok xs =
  xs <> []
  && List.for_all (fun s -> status_of s.s_reply = "ok") xs
  && pct 90.0 (List.map latency_ms xs) <= p90_limit_ms
  &&
  let first, last = quarters xs in
  last -. first <= p90_limit_ms /. 2.0

let serve_workload () =
  let rng = Rng.create seed in
  let held = Suites.dacapo @ draw_corpus rng ~families:all_families ~per:1 ~exclude:[] in
  let t_start = now () in
  let gen_s, default_s = setup ~scenario:Machine.Opt (Suites.spec @ held) in
  span "bench.gen" (fun () -> List.iter (fun b -> ignore (Suites.program b)) serve_programs);
  ensure_dir out_dir;
  let socket = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let endpoint = Proto.Unix_path socket in
  Pool.set_default_domains 2;
  let srv =
    span "bench.daemon_start" (fun () ->
        Server.start ~config:{ Server.default_config with Server.quiet = true } endpoint)
  in
  let setup_s = now () -. t_start in
  if setup_only then begin
    Server.stop srv;
    print_endline (Json.encode (Json.Obj [ ("setup_s", num setup_s) ]));
    exit 0
  end;
  (* Load phases: each rate's generator runs in its own process, one after
     the other, on a cleared fitness cache. *)
  let window = if traced then Some (open_window ()) else None in
  let gen_out = Filename.concat out_dir (Printf.sprintf "gen-%d.jsonl" (Unix.getpid ())) in
  let fd = Unix.openfile gen_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let gen_failed =
    List.length
      (List.filter
         (fun phase ->
           Fitcache.clear ();
           let argv =
             [ Sys.executable_name; "serve-gen"; "--seed"; string_of_int seed; "--socket"; socket;
               "--phase"; string_of_int phase; "--t0"; Printf.sprintf "%.6f" (now () +. 0.1);
               "--rates"; String.concat "," (List.map string_of_float rates) ]
             @ if smoke then [ "--smoke" ] else []
           in
           let pid =
             Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin fd Unix.stderr
           in
           let ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
           if not ok then Printf.eprintf "perfbench: the generator of phase %d failed\n%!" phase;
           not ok)
         (List.init (List.length rates) Fun.id))
  in
  Unix.close fd;
  let layers_core, folded =
    match Option.map close_window window with
    | Some (core, folded) -> (Some core, folded)
    | None -> (None, [])
  in
  let server_lat = Metric.snapshot (Metric.histogram "serve.latency_ms") in
  let stats =
    match Client.rpc ~timeout_s:10.0 endpoint "{\"op\":\"stats\"}" with
    | Ok line -> ( match Json.parse line with Ok j -> Json.member "counters" j | Error _ -> None)
    | Error _ -> None
  in
  let stat k =
    match Option.bind stats (fun c -> Option.bind (Json.member k c) Json.to_float) with
    | Some v -> v
    | None -> 0.0
  in
  (* A fixed-budget search, served: the paper's Opt:Tot tune through the
     daemon's protocol, admission and pool.  It is issued [served_tunes]
     times on a cleared fitness cache, so every issue does the same work;
     the first one, which also pays for the heap the load phase left
     behind, is not timed.  They run after the load phase so that the
     daemon's latency histogram holds measure requests only. *)
  let tune_line =
    "{\"op\":\"tune\",\"tenant\":\"tuner\",\"scenario\":\"opt:tot\",\"pop\":8,\"gens\":4,\"seed\":42}"
  in
  let tunes =
    List.init served_tunes (fun _ ->
        Fitcache.clear ();
        let tt0 = now () in
        let reply = span "bench.tune" (fun () -> Client.rpc ~timeout_s:120.0 endpoint tune_line) in
        let wall = now () -. tt0 in
        let parsed =
          match Result.map Json.parse reply with
          | Ok (Ok j) when status_of (Some j) = "ok" -> (
            match (reply_num j "fitness", Json.member "genome" j) with
            | Some f, Some (Json.List g) ->
              Some (wall, f, Array.of_list (List.filter_map Json.to_int g))
            | _ -> None)
          | _ -> None
        in
        if parsed = None then
          Printf.eprintf "perfbench: served tune got %s\n%!"
            (match reply with Ok l -> l | Error e -> e);
        parsed)
  in
  Server.stop srv;
  let fitness, winner =
    match tunes with
    | Some (_, f, g) :: rest
      when List.for_all (function Some (_, f', g') -> f' = f && g' = g | None -> false) rest ->
      (f, Some (Heuristic.of_array g))
    | _ -> (nan, None)
  in
  (* Read back what the generator saw. *)
  let stream = serve_stream () in
  let served =
    let ic = open_in gen_out in
    let acc = ref [] in
    (try
       while true do
         match Json.parse (input_line ic) with
         | Ok j -> (
           match Option.bind (Json.member "i" j) Json.to_int with
           | Some i when i >= 0 && i < Array.length stream ->
             let f k = Option.value (reply_num j k) ~default:nan in
             let reply =
               match Option.bind (Json.member "reply" j) Json.to_string with
               | Some "" | None -> None
               | Some s -> Result.to_option (Json.parse s)
             in
             acc :=
               { s_req = stream.(i); s_due = f "due"; s_sent = f "sent";
                 s_recv = reply_num j "recv"; s_reply = reply }
               :: !acc
           | _ -> ())
         | Error _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    (try Sys.remove gen_out with Sys_error _ -> ());
    List.rev !acc
  in
  if traced then
    List.iter
      (fun s ->
        match s.s_recv with
        | Some r -> record_span ~name:"client.request" ~req:(Printf.sprintf "r%d" s.s_req.idx)
                      ~t0:s.s_due ~t1:r
        | None -> ())
      served;
  let phase k = List.filter (fun s -> s.s_req.phase = k) served in
  let nominal_idx =
    let rec find i = function [] -> 0 | r :: rest -> if r = nominal_rate then i else find (i + 1) rest in
    find 0 rates
  in
  let nominal = phase nominal_idx in
  let nominal_lat = List.map latency_ms nominal in
  (* the top of the ladder of rates that all pass, lowest first *)
  let max_rate =
    let rec climb best i = function
      | r :: rest when phase_ok (phase i) -> climb r (i + 1) rest
      | _ -> best
    in
    climb 0.0 0 rates
  in
  (* every rate's latency, for the result's details *)
  let phase_report =
    List.mapi
      (fun i rate ->
        let xs = phase i in
        let lat = List.map latency_ms xs in
        let first, last = quarters xs in
        (* requests per second from the first due time to the last reply *)
        let span_s =
          List.fold_left
            (fun a s -> Float.max a (Option.value s.s_recv ~default:nan))
            neg_infinity xs
          -. List.fold_left (fun a s -> Float.min a s.s_due) infinity xs
        in
        nums
          [
            ("rate_rps", rate); ("requests", float_of_int (List.length xs));
            ("completed_rps", float_of_int (List.length xs) /. span_s);
            ("p50_ms", pct 50.0 lat); ("p90_ms", pct 90.0 lat); ("p99_ms", pct 99.0 lat);
            ("first_quarter_p50_ms", first); ("last_quarter_p50_ms", last);
            ("meets_limit", if phase_ok xs then 1.0 else 0.0);
          ])
      rates
  in
  let bad = List.filter (fun s -> status_of s.s_reply <> "ok") served in
  List.iter
    (fun s ->
      Printf.eprintf "perfbench: r%d got %s\n%!" s.s_req.idx
        (match s.s_reply with Some j -> Json.encode j | None -> "no reply"))
    bad;
  let bad_requests = List.length bad + (Array.length stream - List.length served) in
  (* Offline re-run of a seed-drawn sample of served replies: the daemon's
     cycles must equal a fresh Measure.run's. *)
  let oks = Array.of_list (List.filter (fun s -> status_of s.s_reply = "ok") served) in
  let orng = Rng.create (seed + 1) in
  Rng.shuffle_in_place orng oks;
  let checked = Array.to_list (Array.sub oks 0 (min 12 (Array.length oks))) in
  Fitcache.set_enabled false;
  let offline_mismatch =
    List.filter
      (fun s ->
        let r = s.s_req in
        let t =
          Measure.run ~iterations:serve_iterations
            ~scenario:(if r.scen = "opt" then Machine.Opt else Machine.Adapt)
            ~platform ~heuristic:(Params.heuristic_of_string r.heur) (find_bench r.bench)
        in
        let differs =
          match s.s_reply with
          | Some j ->
            reply_num j "running_cycles" <> Some t.Measure.running
            || reply_num j "total_cycles" <> Some t.Measure.total
            || reply_num j "compile_cycles" <> Some t.Measure.compile
          | None -> true
        in
        if differs then
          Printf.eprintf
            "perfbench: served r%d (%s %s %s) differs from offline Measure.run: offline \
             running/total/compile %.0f/%.0f/%.0f, served %s\n%!"
            r.idx r.bench r.scen r.heur t.Measure.running t.Measure.total t.Measure.compile
            (match s.s_reply with Some j -> Json.encode j | None -> "no reply");
        differs)
      checked
  in
  Fitcache.set_enabled true;
  let h, tune_failed =
    match winner with
    | Some w -> (evaluate_heldout ~scenario:Machine.Opt ~heuristic:w held, 0)
    | None ->
      prerr_endline "perfbench: a served tune failed or the served tunes disagree";
      ( { total = nan; running = nan; icache_miss_ratio = 0.0; code_bytes = 0.0; mismatches = [] },
        1 )
  in
  List.iter (fun n -> Printf.eprintf "perfbench: output mismatch on %s\n%!" n) h.mismatches;
  let failed =
    bad_requests + List.length offline_mismatch + tune_failed + List.length h.mismatches
    + gen_failed
  in
  let attempted = Array.length stream + List.length checked + served_tunes + List.length held in
  let conn_wait =
    (* client latency from send minus the daemon's own, same percentile and
       phases: the time a request spends on the connection *)
    let from_send s = match s.s_recv with Some r -> (r -. s.s_sent) *. 1000. | None -> infinity in
    Float.max 0.0 (pct 99.0 (List.map from_send served) -. server_lat.Metric.hs_p99)
  in
  let lags = List.map (fun s -> (s.s_sent -. s.s_due) *. 1000.) served in
  (* The open-loop timings, from every repetition; run.py takes them from
     the unprofiled ones, since profiling slows the daemon down. *)
  let serve_metrics =
    [
      ("serve.p50_ms", pct 50.0 nominal_lat);
      ("serve.p90_ms", pct 90.0 nominal_lat);
      ("serve.p99_ms", pct 99.0 nominal_lat);
      ("serve.max_rate_rps", max_rate);
      ("serve.nominal_requests", float_of_int (List.length nominal));
      ("serve.server_p50_ms", server_lat.Metric.hs_p50);
      ("serve.server_p99_ms", server_lat.Metric.hs_p99);
      ("serve.conn_wait_ms_p99", conn_wait);
      ("serve.shed", stat "serve.shed");
      ("serve.degraded_replies", stat "serve.degraded_replies");
      ("serve.timeouts", stat "serve.timeouts");
      ("serve.generator_lag_ms_p99", pct 99.0 lags);
    ]
  in
  let windows =
    List.map
      (fun core ->
        [ ("workloads.gen_s", gen_s); ("measure.default_s", default_s);
          ("ga.evaluations", 0.0); ("ga.gen_s_p50", 0.0) ]
        @ core
        @ [ ("vm.icache_miss_ratio", h.icache_miss_ratio); ("vm.code_bytes", h.code_bytes) ])
      (Option.to_list layers_core)
  in
  (* Served tunes run with the profiler off; what tracing may slow down here
     is the profiled load phase, compared through the daemon's mean service
     time per request (the same stream in every repetition). *)
  emit ~windows ~folded
    ~searches:
      (List.filter_map (Option.map (fun (w, _, _) -> sample ~traced:false w)) (List.tl tunes))
    ~basis:[ sample ~traced (ratio server_lat.Metric.hs_sum (float_of_int server_lat.Metric.hs_count)) ]
    ~fields:
      [
        ("workload", Json.Str mode);
        ("setup_s", num setup_s);
        ("train_fitness", num fitness);
        ("heldout_total", num h.total);
        ("heldout_running", num h.running);
        ("attempted", num (float_of_int attempted));
        ("failed", num (float_of_int failed));
        ("serve", nums serve_metrics);
        ("profiled", Json.Bool traced);
        ("phases", Json.List phase_report);
        ( "provenance",
          provenance
            [
              ("rates_rps", Json.List (List.map num rates));
              ("nominal_rps", num nominal_rate);
              ("phase_requests", num (float_of_int phase_requests));
              ("p90_limit_ms", num p90_limit_ms);
              ("connections", num (float_of_int connections));
              ("heldout", names held);
            ] );
      ]

let () =
  match mode with
  | "tune-opt" -> tune_workload ~adapt:false
  | "tune-adapt" -> tune_workload ~adapt:true
  | "serve-open" -> serve_workload ()
  | "serve-gen" -> generator ()
  | m -> die "unknown workload %S (tune-opt, tune-adapt, serve-open)" m
