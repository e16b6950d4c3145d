module R = Inltune_resilience
module Faultinject = R.Faultinject
module Sandbox = R.Sandbox
module Checkpoint = Inltune_ga.Checkpoint
module Evolve = Inltune_ga.Evolve
module Genome = Inltune_ga.Genome

(* --- Faultinject --- *)

let test_parse_ok () =
  match Faultinject.parse "eval:raise@3, eval:corrupt@7,io:hang@1" with
  | Error m -> Alcotest.failf "parse failed: %s" m
  | Ok specs ->
    Alcotest.(check int) "three specs" 3 (List.length specs);
    let s = List.nth specs 0 in
    Alcotest.(check string) "site" "eval" s.Faultinject.site;
    Alcotest.(check int) "at" 3 s.Faultinject.at;
    Alcotest.(check string) "action" "raise" (Faultinject.action_name s.Faultinject.action)

let test_parse_empty () =
  match Faultinject.parse "" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty string should arm nothing"
  | Error m -> Alcotest.failf "empty string rejected: %s" m

let test_parse_errors () =
  List.iter
    (fun s ->
      match Faultinject.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" s
      | Error _ -> ())
    [ "bogus"; "eval:raise"; "eval:explode@3"; "eval:raise@0"; "eval:raise@x"; ":raise@1" ]

let test_fires_at_exactly_k () =
  (match Faultinject.parse "eval:raise@3" with
  | Ok specs -> Faultinject.install specs
  | Error m -> Alcotest.failf "parse: %s" m);
  Fun.protect ~finally:Faultinject.clear (fun () ->
      Alcotest.(check bool) "armed" true (Faultinject.active ());
      let hits =
        List.init 5 (fun _ -> match Faultinject.check "eval" with Some _ -> 1 | None -> 0)
      in
      Alcotest.(check (list int)) "only the 3rd call fires" [ 0; 0; 1; 0; 0 ] hits;
      Alcotest.(check int) "call count" 5 (Faultinject.calls "eval");
      Alcotest.(check int) "other sites unaffected" 0 (Faultinject.calls "io"))

let test_clear_disarms () =
  (match Faultinject.parse "eval:corrupt@1" with
  | Ok specs -> Faultinject.install specs
  | Error m -> Alcotest.failf "parse: %s" m);
  Faultinject.clear ();
  Alcotest.(check bool) "disarmed" false (Faultinject.active ());
  Alcotest.(check bool) "check is a no-op" true (Faultinject.check "eval" = None)

(* --- Sandbox --- *)

(* Fitness evaluation's sandbox: [run] with non-finite results rejected as
   corrupt, exactly as Evolve and Dataset call it. *)
let run_fitness ?max_retries ?classify ~site f =
  Sandbox.run ?max_retries ?classify ~corrupt:Sandbox.non_finite ~site f

let test_sandbox_first_try () =
  match run_fitness ~site:"t" (fun () -> 0.25) with
  | Ok ok ->
    Alcotest.(check (float 0.0)) "value" 0.25 ok.Sandbox.result;
    Alcotest.(check int) "one attempt" 1 ok.Sandbox.o_attempts
  | Error f -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string f)

let test_sandbox_retry_then_success () =
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls < 3 then failwith "flaky" else 0.5
  in
  match run_fitness ~max_retries:2 ~site:"t" f with
  | Ok ok ->
    Alcotest.(check (float 0.0)) "value" 0.5 ok.Sandbox.result;
    Alcotest.(check int) "attempts" 3 ok.Sandbox.o_attempts;
    Alcotest.(check int) "calls" 3 !calls
  | Error f -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string f)

let test_sandbox_exhaustion () =
  let calls = ref 0 in
  let f () = incr calls; failwith "always" in
  match run_fitness ~max_retries:2 ~site:"t" f with
  | Ok _ -> Alcotest.fail "should have failed"
  | Error fl ->
    Alcotest.(check int) "attempts = 1 + max_retries" 3 fl.Sandbox.f_attempts;
    Alcotest.(check int) "calls" 3 !calls;
    (* 2^0 after attempt 1, 2^1 after attempt 2 (no backoff after the last). *)
    Alcotest.(check int) "backoff units" 3 fl.Sandbox.f_backoff_units

let test_sandbox_corrupt_output () =
  let calls = ref 0 in
  let f () = incr calls; Float.nan in
  (match run_fitness ~max_retries:1 ~site:"t" f with
  | Ok _ -> Alcotest.fail "NaN must not be an Ok value"
  | Error fl ->
    Alcotest.(check int) "retried once" 2 fl.Sandbox.f_attempts;
    Alcotest.(check bool) "reason mentions corrupt" true
      (String.length fl.Sandbox.f_reason >= 7
      && String.sub fl.Sandbox.f_reason 0 7 = "corrupt"));
  match run_fitness ~site:"t" (fun () -> Float.infinity) with
  | Ok _ -> Alcotest.fail "infinity must not be an Ok value"
  | Error _ -> ()

let test_sandbox_classify_rejects () =
  let f () = raise Exit in
  Alcotest.check_raises "unclassified exception propagates" Exit (fun () ->
      ignore (run_fitness ~classify:(fun e -> e <> Exit) ~site:"t" f))

let test_sandbox_run_generic_corrupt () =
  (* The generic engine retries arbitrary result types; [corrupt] rejects a
     bad success exactly like an exception. *)
  let calls = ref 0 in
  let f () = incr calls; if !calls = 1 then "garbage" else "fine" in
  let corrupt s = if s = "garbage" then Some "garbage result" else None in
  match Sandbox.run ~max_retries:1 ~corrupt ~site:"t" f with
  | Ok o ->
    Alcotest.(check string) "second result kept" "fine" o.Sandbox.result;
    Alcotest.(check int) "attempts" 2 o.Sandbox.o_attempts
  | Error fl -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string fl)

(* The env-armed hang path: INLTUNE_FAULTS="SITE:hang@K" makes the K-th gate
   check of SITE burn its whole fuel budget (Out_of_fuel), which the sandbox
   treats as one more transient failure — retried with the deterministic
   exponential backoff schedule. *)

let arm_from_env spec =
  Unix.putenv "INLTUNE_FAULTS" spec;
  Fun.protect
    ~finally:(fun () -> Unix.putenv "INLTUNE_FAULTS" "")
    (fun () ->
      match Faultinject.init_from_env () with
      | Ok () -> ()
      | Error m -> Alcotest.failf "init_from_env: %s" m)

let hang_gate site () =
  match Faultinject.check site with
  | Some Faultinject.Hang -> raise Inltune_vm.Machine.Out_of_fuel
  | Some Faultinject.Raise -> raise (Faultinject.Injected site)
  | Some Faultinject.Corrupt -> Float.nan
  | None -> 0.5

let test_sandbox_hang_retries_then_succeeds () =
  arm_from_env "sbx:hang@1";
  Fun.protect ~finally:Faultinject.clear (fun () ->
      match run_fitness ~max_retries:2 ~site:"sbx" (hang_gate "sbx") with
      | Ok ok ->
        Alcotest.(check (float 0.0)) "recovered value" 0.5 ok.Sandbox.result;
        Alcotest.(check int) "hang, then success" 2 ok.Sandbox.o_attempts
      | Error fl -> Alcotest.failf "unexpected failure: %s" (Sandbox.failure_to_string fl))

let test_sandbox_hang_exhaustion_deterministic_backoff () =
  (* Every attempt hangs: the failure record carries exactly the backoff the
     schedule prescribes (1 after attempt 1, 2 after attempt 2), every run. *)
  arm_from_env "sbx2:hang@1,sbx2:hang@2,sbx2:hang@3";
  Fun.protect ~finally:Faultinject.clear (fun () ->
      match run_fitness ~max_retries:2 ~site:"sbx2" (hang_gate "sbx2") with
      | Ok _ -> Alcotest.fail "three hangs must exhaust two retries"
      | Error fl ->
        Alcotest.(check int) "attempts" 3 fl.Sandbox.f_attempts;
        Alcotest.(check int) "backoff 1 + 2"
          (Sandbox.backoff_units ~attempt:1 + Sandbox.backoff_units ~attempt:2)
          fl.Sandbox.f_backoff_units;
        Alcotest.(check int) "gate consumed all three faults" 3
          (Faultinject.calls "sbx2"))

let test_backoff_schedule () =
  Alcotest.(check (list int)) "exponential" [ 1; 2; 4; 8 ]
    (List.map (fun a -> Sandbox.backoff_units ~attempt:a) [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "capped" (Sandbox.backoff_units ~attempt:100)
    (Sandbox.backoff_units ~attempt:21)

(* --- Checkpoint: one format, every behaviour tested through both genome
   codecs --- *)

module Tree = Inltune_gp.Tree

let history =
  [
    { Checkpoint.generation = 0; best_fitness = 1.0; mean_fitness = 2.0; evaluations = 2 };
    { Checkpoint.generation = 7; best_fitness = 0.5; mean_fitness = 0.75; evaluations = 4 };
  ]

let sample ~pop ~best ~cache ~quarantine =
  {
    Checkpoint.s_gen = 7;
    s_rng = -4616189618054758400L;
    s_pop = pop;
    s_best = Some best;
    s_best_fitness = 0.123456789012345678;
    s_cache = cache;
    s_quarantine = quarantine;
    s_history = history;
    s_evaluations = 4;
    s_cache_hits = 9;
    s_failures = 1;
    s_retries = 2;
  }

let echo = { Checkpoint.pop_size = 2; seed = 42 }

(* A codec, a sample snapshot, and one line the previous release of each
   checkpoint module wrote (generation 0 of a 3-individual run with one
   quarantined genome).  The format is unchanged, so those lines must load
   and re-serialize byte-for-byte. *)
type case = Case : string * 'g Checkpoint.codec * 'g Checkpoint.snapshot * string -> case

let ga_case =
  Case
    ( "ga",
      Checkpoint.ints,
      sample
        ~pop:[| [| 1; 2; 3 |]; [| 4; 5; 6 |] |]
        ~best:[| 1; 2; 3 |]
        ~cache:[ ("1,2,3", 0.5); ("4,5,6", 1.0e6) ]
        ~quarantine:[ "4,5,6" ],
      {|{"v":1,"gen":0,"rng":"4990025626462012773","pop_size":3,"seed":42,"pop":[[4,13,5,3942,13],[16,12,3,502,44],[2,12,10,3374,40]],"best":[16,12,3,502,44],"best_fitness":0.94582199525555644,"cache":{"16,12,3,502,44":0.94582199525555644,"2,12,10,3374,40":1000000,"4,13,5,3942,13":1.0767278503170155},"quarantine":["2,12,10,3374,40"],"history":[{"gen":0,"best":0.94582199525555644,"mean":333334.00751661521,"evals":3}],"evaluations":3,"cache_hits":0,"failures":1,"retries":1}|}
    )

let gp_case =
  let t1 = Tree.(Cmp (Le, Feat 0, Const 10.0)) in
  let t2 = Tree.(And (True, Not (Cmp (Gt, Feat 2, Const 3.0)))) in
  Case
    ( "gp",
      Inltune_gp.Evolve.codec,
      sample ~pop:[| t1; t2; Tree.True |] ~best:t1
        ~cache:[ (Tree.digest t1, 1.0625); (Tree.digest t2, 1.25) ]
        ~quarantine:[ "deadbeef" ],
      {|{"v":1,"gen":0,"rng":"-2841327132798346042","pop_size":3,"seed":4,"pop":["(not (not (or (le (const 3) (feat 9)) (le (const 1803) (feat 8)))))","(or (and (le (const 19) (feat 0)) (le (const 8) (const 4))) (not (le (const 9) (const 351))))","(gt (min (const 7) (const 11)) (max (feat 3) (feat 2)))"],"best":"(not (not (or (le (const 3) (feat 9)) (le (const 1803) (feat 8)))))","best_fitness":1.1517120307246989,"cache":{"6ab5155da1b860706fdc635062ce8e45":1.152012030724699,"8bca82ce6aa7e9977e969cca6b077ab7":1.1517120307246989,"8c325ae3031a5abcce2bc1e6cc5ee8da":1000000},"quarantine":["8c325ae3031a5abcce2bc1e6cc5ee8da"],"history":[{"gen":0,"best":1.1517120307246989,"mean":333334.10124135384,"evals":3}],"evaluations":3,"cache_hits":0,"failures":1,"retries":1}|}
    )

let cases = [ ga_case; gp_case ]

let with_temp_file f =
  let path = Filename.temp_file "inltune_ckpt" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let check_round_trip kind codec s =
  match Checkpoint.of_line codec (Checkpoint.to_line codec echo s) with
  | Error m -> Alcotest.failf "%s: of_line: %s" kind m
  | Ok (s', echo') ->
    Alcotest.(check bool) (kind ^ ": exact round-trip") true (s' = s);
    Alcotest.(check bool) (kind ^ ": echo") true (echo' = echo)

let test_checkpoint_roundtrip () =
  List.iter
    (fun (Case (kind, codec, s, _)) ->
      check_round_trip kind codec s;
      check_round_trip (kind ^ " without a best") codec { s with Checkpoint.s_best = None })
    cases

let test_checkpoint_float_fidelity () =
  List.iter
    (fun (Case (kind, codec, s, _)) ->
      let s = { s with Checkpoint.s_best_fitness = 0.1 +. 0.2 } in
      match Checkpoint.of_line codec (Checkpoint.to_line codec echo s) with
      | Error m -> Alcotest.failf "%s: of_line: %s" kind m
      | Ok (s', _) ->
        Alcotest.(check bool) (kind ^ ": bit-identical float") true
          (Int64.equal
             (Int64.bits_of_float s.Checkpoint.s_best_fitness)
             (Int64.bits_of_float s'.Checkpoint.s_best_fitness)))
    cases

let test_checkpoint_load_last_valid () =
  List.iter
    (fun (Case (kind, codec, s, _)) ->
      with_temp_file (fun path ->
          Checkpoint.write codec ~path echo { s with Checkpoint.s_gen = 3 };
          Checkpoint.write codec ~path echo s;
          (* Simulate a crash mid-append: a truncated last line. *)
          let oc = open_out_gen [ Open_append ] 0o644 path in
          output_string oc (String.sub (Checkpoint.to_line codec echo s) 0 25);
          close_out oc;
          match Checkpoint.load codec ~path with
          | Error m -> Alcotest.failf "%s: load: %s" kind m
          | Ok (s', _) ->
            Alcotest.(check int) (kind ^ ": last complete snapshot wins") 7 s'.Checkpoint.s_gen;
            Alcotest.(check bool) (kind ^ ": that snapshot intact") true (s' = s)))
    cases

let test_checkpoint_load_missing () =
  List.iter
    (fun (Case (kind, codec, _, _)) ->
      match Checkpoint.load codec ~path:"/nonexistent/inltune.ckpt" with
      | Ok _ -> Alcotest.failf "%s: missing file must not load" kind
      | Error _ -> ())
    cases

let test_checkpoint_load_garbage () =
  List.iter
    (fun (Case (kind, codec, _, _)) ->
      with_temp_file (fun path ->
          let oc = open_out path in
          output_string oc "not a checkpoint\n{\"v\":1,\"gen\":4,\"rng\":\"12\n";
          close_out oc;
          match Checkpoint.load codec ~path with
          | Ok _ -> Alcotest.failf "%s: garbage must not load" kind
          | Error _ -> ()))
    cases

let test_checkpoint_fixed_lines () =
  List.iter
    (fun (Case (kind, codec, _, line)) ->
      match Checkpoint.of_line codec line with
      | Error m -> Alcotest.failf "%s: fixed line does not load: %s" kind m
      | Ok (s, echo) ->
        Alcotest.(check string) (kind ^ ": re-serialized byte-for-byte") line
          (Checkpoint.to_line codec echo s))
    cases

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_checkpoint_wrong_kind () =
  (* Every line of one kind, loaded with the other kind's codec, fails with
     an error naming both kinds — from a line and from a file. *)
  List.iter
    (fun (Case (file_kind, _, _, line)) ->
      List.iter
        (fun (Case (run_kind, codec, _, _)) ->
          if run_kind <> file_kind then begin
            let expect what = function
              | Ok _ -> Alcotest.failf "%s line accepted by the %s codec" file_kind run_kind
              | Error msg ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %s names both kinds: %s" what file_kind msg)
                  true
                  (contains msg (Printf.sprintf "holds %s genomes" file_kind)
                  && contains msg (Printf.sprintf "this run is %s" run_kind))
            in
            expect "of_line" (Checkpoint.of_line codec line);
            with_temp_file (fun path ->
                let oc = open_out path in
                output_string oc (line ^ "\n");
                close_out oc;
                expect "load" (Checkpoint.load codec ~path))
          end)
        cases)
    cases

let test_checkpoint_write_event_kind () =
  let sink, events = Inltune_obs.Sink.memory () in
  Inltune_obs.Trace.install sink;
  Fun.protect ~finally:Inltune_obs.Trace.disable (fun () ->
      with_temp_file (fun path ->
          List.iter (fun (Case (_, codec, s, _)) -> Checkpoint.write codec ~path echo s) cases));
  let kinds = ref [] in
  Inltune_support.Vec.iter
    (fun e ->
      if e.Inltune_obs.Event.name = "ckpt.write" then
        kinds := Inltune_obs.Event.str_field e "kind" :: !kinds)
    events;
  Alcotest.(check (list (option string))) "one event per write, with its kind"
    [ Some "ga"; Some "gp" ] (List.rev !kinds)

(* --- Guarded evolution --- *)

let spec3 = Genome.spec [| (0, 20); (0, 20); (0, 20) |]

let small_params =
  {
    Evolve.default_params with
    Evolve.pop_size = 8;
    generations = 5;
    seed = 7;
    domains = Some 1;
  }

(* Sphere function: smooth, deterministic, minimized at (5,5,5). *)
let sphere g =
  Array.fold_left (fun acc v -> acc +. (Float.of_int ((v - 5) * (v - 5)) /. 100.0)) 0.01 g

let test_guarded_run_isolates_failures () =
  (* Genomes whose first gene is even fail every attempt; the search must
     still complete and return a finite (odd-first-gene) best. *)
  let fitness g = if g.(0) mod 2 = 0 then failwith "injected" else sphere g in
  let guard = { Evolve.default_guard with Evolve.failure_threshold = 1.1 } in
  let r = Evolve.run ~guard ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check bool) "failures recorded" true (r.Evolve.failures > 0);
  Alcotest.(check int) "every failure quarantined" r.Evolve.failures r.Evolve.quarantined;
  Alcotest.(check bool) "run not degraded" true (r.Evolve.stopped = None);
  Alcotest.(check bool) "best is a real evaluation" true
    (Float.is_finite r.Evolve.best_fitness && r.Evolve.best_fitness < 100.0);
  Alcotest.(check int) "best genome survived the fault" 1 (r.Evolve.best.(0) mod 2)

let test_quarantine_stops_reevaluation () =
  (* A persistently failing genotype is attempted exactly (1 + max_retries)
     times in total, however many generations revisit it. *)
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let fitness g =
    let k = Genome.key g in
    Hashtbl.replace attempts k (1 + Option.value ~default:0 (Hashtbl.find_opt attempts k));
    if g.(0) mod 2 = 0 then failwith "injected" else sphere g
  in
  let guard =
    { Evolve.default_guard with Evolve.max_retries = 2; failure_threshold = 1.1 }
  in
  let r = Evolve.run ~guard ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check bool) "some genomes failed" true (r.Evolve.quarantined > 0);
  Hashtbl.iter
    (fun k n ->
      let even = int_of_string (List.hd (String.split_on_char ',' k)) mod 2 = 0 in
      if even then Alcotest.(check int) ("attempts for failing " ^ k) 3 n
      else Alcotest.(check int) ("attempts for healthy " ^ k) 1 n)
    attempts

let test_degradation_stops_search () =
  let fitness _ = failwith "dead evaluator" in
  let r = Evolve.run ~guard:Evolve.default_guard ~spec:spec3 ~params:small_params ~fitness () in
  (match r.Evolve.stopped with
  | None -> Alcotest.fail "total failure must degrade the search"
  | Some reason ->
    Alcotest.(check bool) "reason is human-readable" true
      (String.length reason > 0 && String.sub reason 0 10 = "generation"));
  Alcotest.(check bool) "stopped at generation 0" true (List.length r.Evolve.history = 1);
  Alcotest.(check (float 0.0)) "every fitness is the penalty"
    Evolve.default_guard.Evolve.penalty r.Evolve.best_fitness

let test_classify_limits_retry () =
  (* Exceptions the guard does not classify as transient are penalized
     without retry: exactly one attempt per distinct genome. *)
  let calls = ref 0 in
  let fitness _ = incr calls; raise Exit in
  let guard =
    {
      Evolve.default_guard with
      Evolve.max_retries = 5;
      failure_threshold = 1.1;
      classify = (function Exit -> false | _ -> true);
    }
  in
  let r = Evolve.run ~guard ~spec:spec3 ~params:small_params ~fitness () in
  Alcotest.(check int) "one attempt per distinct genome" r.Evolve.evaluations !calls;
  Alcotest.(check int) "all quarantined" r.Evolve.evaluations r.Evolve.quarantined

(* --- Checkpoint / resume determinism --- *)

let run_ga ?checkpoint ?resume ~gens () =
  let params = { small_params with Evolve.generations = gens } in
  Evolve.run ?checkpoint ?resume ~guard:Evolve.default_guard ~spec:spec3 ~params
    ~fitness:sphere ()

let check_same_result label (a : Evolve.result) (b : Evolve.result) =
  Alcotest.(check (array int)) (label ^ ": best genome") a.Evolve.best b.Evolve.best;
  Alcotest.(check bool)
    (label ^ ": best fitness bit-identical")
    true
    (Int64.equal
       (Int64.bits_of_float a.Evolve.best_fitness)
       (Int64.bits_of_float b.Evolve.best_fitness));
  Alcotest.(check int) (label ^ ": evaluations") a.Evolve.evaluations b.Evolve.evaluations;
  Alcotest.(check int) (label ^ ": cache hits") a.Evolve.cache_hits b.Evolve.cache_hits;
  Alcotest.(check bool) (label ^ ": history") true (a.Evolve.history = b.Evolve.history)

let test_resume_matches_uninterrupted () =
  let ckpt = Filename.temp_file "inltune_resume" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      let full = run_ga ~gens:6 () in
      Sys.remove ckpt;
      (* "Crash" after generation 3, then resume to the same horizon. *)
      let _interrupted = run_ga ~checkpoint:ckpt ~gens:3 () in
      let resumed = run_ga ~resume:ckpt ~gens:6 () in
      check_same_result "resume = uninterrupted" full resumed)

let test_resume_from_own_checkpoint_file () =
  (* Resuming and checkpointing into the same file mid-flight also works:
     snapshots append, and load picks the newest. *)
  let ckpt = Filename.temp_file "inltune_resume2" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      let full = run_ga ~gens:6 () in
      Sys.remove ckpt;
      let _ = run_ga ~checkpoint:ckpt ~gens:2 () in
      let _ = run_ga ~checkpoint:ckpt ~resume:ckpt ~gens:4 () in
      let resumed = run_ga ~checkpoint:ckpt ~resume:ckpt ~gens:6 () in
      check_same_result "chained resumes" full resumed)

let test_resume_rejects_mismatched_params () =
  let ckpt = Filename.temp_file "inltune_resume3" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      Sys.remove ckpt;
      let _ = run_ga ~checkpoint:ckpt ~gens:2 () in
      let params =
        { small_params with Evolve.generations = 4; seed = small_params.Evolve.seed + 1 }
      in
      let rejection ?(spec = spec3) ~params path =
        match
          Evolve.run ~resume:path ~guard:Evolve.default_guard ~spec ~params ~fitness:sphere ()
        with
        | _ -> None
        | exception Evolve.Cannot_resume msg -> Some msg
      in
      (match rejection ~params ckpt with
      | Some msg -> Alcotest.(check bool) ("seed mismatch named: " ^ msg) true (contains msg "seed")
      | None -> Alcotest.fail "seed mismatch accepted");
      Alcotest.(check bool) "missing file rejected" true
        (rejection ~params:small_params (ckpt ^ ".missing") <> None);
      Alcotest.(check bool) "genomes outside the spec rejected" true
        (rejection ~spec:(Genome.spec [| (0, 1); (0, 1); (0, 1) |]) ~params:small_params ckpt
        <> None))

let suite =
  [
    ("faultinject parse ok", `Quick, test_parse_ok);
    ("faultinject parse empty", `Quick, test_parse_empty);
    ("faultinject parse errors", `Quick, test_parse_errors);
    ("faultinject fires at exactly k", `Quick, test_fires_at_exactly_k);
    ("faultinject clear disarms", `Quick, test_clear_disarms);
    ("sandbox first try", `Quick, test_sandbox_first_try);
    ("sandbox retry then success", `Quick, test_sandbox_retry_then_success);
    ("sandbox exhaustion", `Quick, test_sandbox_exhaustion);
    ("sandbox corrupt output", `Quick, test_sandbox_corrupt_output);
    ("sandbox classify rejects", `Quick, test_sandbox_classify_rejects);
    ("sandbox backoff schedule", `Quick, test_backoff_schedule);
    ("sandbox generic run corrupt", `Quick, test_sandbox_run_generic_corrupt);
    ("sandbox hang retries then succeeds", `Quick, test_sandbox_hang_retries_then_succeeds);
    ("sandbox hang exhaustion backoff", `Quick, test_sandbox_hang_exhaustion_deterministic_backoff);
    ("checkpoint roundtrip", `Quick, test_checkpoint_roundtrip);
    ("checkpoint float fidelity", `Quick, test_checkpoint_float_fidelity);
    ("checkpoint load last valid", `Quick, test_checkpoint_load_last_valid);
    ("checkpoint load missing", `Quick, test_checkpoint_load_missing);
    ("checkpoint load garbage", `Quick, test_checkpoint_load_garbage);
    ("checkpoint fixed lines reload byte-for-byte", `Quick, test_checkpoint_fixed_lines);
    ("checkpoint wrong kind names both kinds", `Quick, test_checkpoint_wrong_kind);
    ("checkpoint write event carries kind", `Quick, test_checkpoint_write_event_kind);
    ("guarded run isolates failures", `Quick, test_guarded_run_isolates_failures);
    ("quarantine stops re-evaluation", `Quick, test_quarantine_stops_reevaluation);
    ("degradation stops search", `Quick, test_degradation_stops_search);
    ("classify limits retry", `Quick, test_classify_limits_retry);
    ("resume matches uninterrupted", `Quick, test_resume_matches_uninterrupted);
    ("resume from own checkpoint", `Quick, test_resume_from_own_checkpoint_file);
    ("resume rejects mismatched params", `Quick, test_resume_rejects_mismatched_params);
  ]
