open Inltune_jir
open Inltune_opt
module B = Builder

(* --- Heuristic: the paper's Fig. 3 / Fig. 4 semantics, test by test --- *)

let h = Heuristic.default

let test_fig3_callee_too_big () =
  Alcotest.(check bool) "size > CALLEE_MAX -> no" false
    (Heuristic.consider h ~callee_size:24 ~inline_depth:1 ~caller_size:10)

let test_fig3_always_inline_beats_depth () =
  (* Order matters: a tiny callee is inlined even past the depth limit. *)
  Alcotest.(check bool) "tiny callee inlined at huge depth" true
    (Heuristic.consider h ~callee_size:10 ~inline_depth:99 ~caller_size:10)

let test_fig3_always_inline_beats_caller () =
  Alcotest.(check bool) "tiny callee inlined into huge caller" true
    (Heuristic.consider h ~callee_size:10 ~inline_depth:1 ~caller_size:1_000_000)

let test_fig3_depth_limit () =
  Alcotest.(check bool) "depth 5 allowed" true
    (Heuristic.consider h ~callee_size:15 ~inline_depth:5 ~caller_size:10);
  Alcotest.(check bool) "depth 6 blocked" false
    (Heuristic.consider h ~callee_size:15 ~inline_depth:6 ~caller_size:10)

let test_fig3_caller_limit () =
  Alcotest.(check bool) "caller 2048 allowed" true
    (Heuristic.consider h ~callee_size:15 ~inline_depth:1 ~caller_size:2048);
  Alcotest.(check bool) "caller 2049 blocked" false
    (Heuristic.consider h ~callee_size:15 ~inline_depth:1 ~caller_size:2049)

let test_fig3_all_tests_pass () =
  Alcotest.(check bool) "band callee inlined" true
    (Heuristic.consider h ~callee_size:15 ~inline_depth:2 ~caller_size:100)

let test_fig4_hot () =
  Alcotest.(check bool) "hot 135 yes" true (Heuristic.consider_hot h ~callee_size:135);
  Alcotest.(check bool) "hot 136 no" false (Heuristic.consider_hot h ~callee_size:136)

let test_never_heuristic () =
  for size = 1 to 100 do
    Alcotest.(check bool) "never inlines" false
      (Heuristic.consider Heuristic.never ~callee_size:size ~inline_depth:1 ~caller_size:1)
  done

let test_heuristic_roundtrip () =
  let g = [| 12; 7; 3; 900; 222 |] in
  Alcotest.(check (array int)) "roundtrip" g (Heuristic.to_array (Heuristic.of_array g))

let test_heuristic_of_array_arity () =
  Alcotest.check_raises "bad arity" (Invalid_argument "Heuristic.of_array: need 5 genes")
    (fun () -> ignore (Heuristic.of_array [| 1; 2 |]))

let test_heuristic_of_array_clamps () =
  (* Out-of-range genes (corrupt checkpoint, hand-written genome) clamp into
     the Table 1 ranges instead of producing an impossible heuristic. *)
  let low = Heuristic.of_array [| 0; -3; 0; -100; 0 |] in
  Alcotest.(check (array int)) "clamped to lower bounds" [| 1; 1; 1; 1; 1 |]
    (Heuristic.to_array low);
  let high = Heuristic.of_array [| 99; 999; 999; 99999; 9999 |] in
  Alcotest.(check (array int)) "clamped to upper bounds" [| 50; 20; 15; 4000; 400 |]
    (Heuristic.to_array high);
  Array.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool) "bounds match Table 1" true
        (lo = 1 && hi = [| 50; 20; 15; 4000; 400 |].(i)))
    Heuristic.ranges

let test_clamp_to_ranges () =
  let clamped = Heuristic.clamp_to_ranges [| 0; 100; -3; 9999; 0 |] in
  Alcotest.(check (array int)) "clamped" [| 1; 20; 1; 4000; 1 |] clamped

let test_ranges_match_paper () =
  Alcotest.(check (array (pair int int))) "Table 1 ranges"
    [| (1, 50); (1, 20); (1, 15); (1, 4000); (1, 400) |]
    Heuristic.ranges

let test_default_matches_jikes () =
  Alcotest.(check (array int)) "Jikes defaults" [| 23; 11; 5; 2048; 135 |]
    (Heuristic.to_array Heuristic.default)

(* --- Inline: structural behaviour on hand-built programs --- *)

let tiny_with_helper () =
  (* main -> wrap(x) -> helper(x); helper is tiny, wrap is band-size. *)
  let b = B.create "inline_test" in
  let helper =
    B.method_ b ~name:"helper" ~nargs:1 (fun mb ->
        let one = B.const mb 1 in
        let r = B.add mb 0 one in
        B.ret mb r)
  in
  let wrap =
    B.method_ b ~name:"wrap" ~nargs:1 (fun mb ->
        let r = B.call mb helper [ 0 ] in
        let r2 = B.add mb r 0 in
        B.ret mb r2)
  in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let x = B.const mb 41 in
        let r = B.call mb wrap [ x ] in
        B.print mb r;
        B.ret mb r)
  in
  B.set_main b main;
  (B.finish b, helper, wrap, main)

let count_calls m =
  Array.fold_left
    (fun acc blk ->
      Array.fold_left
        (fun acc i -> match i with Ir.Call _ | Ir.CallVirt _ -> acc + 1 | _ -> acc)
        acc blk.Ir.instrs)
    0 m.Ir.blocks

let test_inline_removes_call () =
  let p, _, _, main = tiny_with_helper () in
  let m, stats = Inline.run ~program:p ~heuristic:Heuristic.default p.Ir.methods.(main) in
  Alcotest.(check int) "no calls left" 0 (count_calls m);
  Alcotest.(check int) "two sites seen" 2 stats.Inline.sites_seen;
  Alcotest.(check int) "two sites inlined" 2 stats.Inline.sites_inlined;
  Validate.check_exn { p with Ir.methods = Array.map (fun x -> if x.Ir.mid = main then m else x) p.Ir.methods }

let test_inline_never_heuristic_is_identity_shape () =
  let p, _, _, main = tiny_with_helper () in
  let m, stats = Inline.run ~program:p ~heuristic:Heuristic.never p.Ir.methods.(main) in
  Alcotest.(check int) "call kept" 1 (count_calls m);
  Alcotest.(check int) "nothing inlined" 0 stats.Inline.sites_inlined

let test_inline_depth_zero_blocks_band () =
  let p, _, _, main = tiny_with_helper () in
  (* wrap is band-size (>= always_inline); depth 0 must block it while the
     tiny helper below would still be inlined if reached. *)
  let h = { Heuristic.default with Heuristic.max_inline_depth = 0; always_inline_size = 1 } in
  let m, _ = Inline.run ~program:p ~heuristic:h p.Ir.methods.(main) in
  Alcotest.(check int) "call survives at depth 0" 1 (count_calls m)

let test_inline_respects_callee_max () =
  let p, _, wrap, main = tiny_with_helper () in
  let wrap_size = Size.of_method p.Ir.methods.(wrap) in
  let h =
    { Heuristic.never with Heuristic.callee_max_size = wrap_size - 1; always_inline_size = 0 }
  in
  let m, _ = Inline.run ~program:p ~heuristic:h p.Ir.methods.(main) in
  Alcotest.(check int) "wrap too big" 1 (count_calls m)

let test_inline_recursion_guard () =
  let b = B.create "rec" in
  let f = B.declare b ~name:"f" ~nargs:1 in
  B.define b f (fun mb ->
      let one = B.const mb 1 in
      let x = B.sub mb 0 one in
      let r = B.call mb f [ x ] in
      B.ret mb r);
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let z = B.const mb 3 in
        let r = B.call mb f [ z ] in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  (* With an aggressive heuristic, the self-call inside f must never unroll
     endlessly: f can be inlined into main once, but f-within-f is refused. *)
  let h = { Heuristic.default with Heuristic.always_inline_size = 20 } in
  let m, _ = Inline.run ~program:p ~heuristic:h p.Ir.methods.(main) in
  Alcotest.(check bool) "terminates with bounded size" true (Size.of_method m < 200)

let test_inline_grows_registers_not_blocks_lost () =
  let p, _, _, main = tiny_with_helper () in
  let before = p.Ir.methods.(main) in
  let m, _ = Inline.run ~program:p ~heuristic:Heuristic.default before in
  Alcotest.(check bool) "nregs grew" true (m.Ir.nregs > before.Ir.nregs);
  Alcotest.(check bool) "blocks grew" true (Array.length m.Ir.blocks > Array.length before.Ir.blocks)

let test_inline_hot_site_path () =
  let p, _helper, wrap, main = tiny_with_helper () in
  let wrap_size = Size.of_method p.Ir.methods.(wrap) in
  (* Static tests would refuse wrap (callee_max below its size), but the hot
     path allows anything up to hot_callee_max_size. *)
  let h =
    {
      Heuristic.never with
      Heuristic.hot_callee_max_size = wrap_size;
      callee_max_size = 0;
    }
  in
  let hot_site ~site_owner:_ ~callee:_ = true in
  let m, stats = Inline.run ~hot_site ~program:p ~heuristic:h p.Ir.methods.(main) in
  Alcotest.(check bool) "hot site inlined" true (stats.Inline.hot_sites_inlined >= 1);
  ignore m

(* --- Inline: decision records --- *)

let decision_reasons ?hot_site ~heuristic p main =
  let ds = Inltune_support.Vec.create () in
  let _ = Inline.run ?hot_site ~decisions:ds ~program:p ~heuristic p.Ir.methods.(main) in
  Array.map (fun d -> Inline.reason_name d.Inline.d_reason) (Inltune_support.Vec.to_array ds)

let test_decision_reasons_default () =
  let p, _, _, main = tiny_with_helper () in
  (* Both wrap and the helper revealed by inlining it sit below
     ALWAYS_INLINE_SIZE, so the second Fig. 3 test fires for each. *)
  Alcotest.(check (array string)) "reasons"
    [| "always_inline"; "always_inline" |]
    (decision_reasons ~heuristic:Heuristic.default p main);
  (* Shrinking ALWAYS_INLINE_SIZE to 1 pushes both sites through the full
     test chain instead. *)
  let h = { Heuristic.default with Heuristic.always_inline_size = 1 } in
  Alcotest.(check (array string)) "reasons without the always-inline shortcut"
    [| "all_tests_pass"; "all_tests_pass" |]
    (decision_reasons ~heuristic:h p main)

let test_decision_reasons_never () =
  let p, _, _, main = tiny_with_helper () in
  Alcotest.(check (array string)) "everything too big" [| "callee_too_big" |]
    (decision_reasons ~heuristic:Heuristic.never p main)

let test_decision_reasons_recursive () =
  let b = B.create "rec2" in
  let f = B.declare b ~name:"f" ~nargs:1 in
  B.define b f (fun mb ->
      let one = B.const mb 1 in
      let x = B.sub mb 0 one in
      let r = B.call mb f [ x ] in
      B.ret mb r);
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let z = B.const mb 3 in
        let r = B.call mb f [ z ] in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  let h = { Heuristic.default with Heuristic.always_inline_size = 20 } in
  let reasons = decision_reasons ~heuristic:h p main in
  Alcotest.(check bool) "self call recorded as recursive" true
    (Array.exists (fun r -> r = "recursive") reasons)

let test_decision_reasons_hot () =
  let p, _, wrap, main = tiny_with_helper () in
  let wrap_size = Size.of_method p.Ir.methods.(wrap) in
  let h =
    { Heuristic.never with Heuristic.hot_callee_max_size = wrap_size; callee_max_size = 0 }
  in
  let hot_site ~site_owner:_ ~callee:_ = true in
  let reasons = decision_reasons ~hot_site ~heuristic:h p main in
  Alcotest.(check bool) "hot path reason recorded" true
    (Array.exists (fun r -> r = "hot_accept") reasons)

(* --- Constprop --- *)

let build_single ~nregs ~instrs ~term =
  let m = { Ir.mid = 0; mname = "m"; nargs = 0; nregs; blocks = [| { Ir.instrs; term } |] } in
  let p = { Ir.pname = "t"; methods = [| m |]; classes = [||]; main = 0 } in
  (p, m)

let test_constprop_folds_binop () =
  let p, m =
    build_single ~nregs:3
      ~instrs:[| Ir.Const (0, 6); Ir.Const (1, 7); Ir.Binop (Ir.Mul, 2, 0, 1) |]
      ~term:(Ir.Ret 2)
  in
  let m', stats = Constprop.run p m in
  Alcotest.(check bool) "folded" true (stats.Constprop.folded >= 1);
  (match m'.Ir.blocks.(0).Ir.instrs.(2) with
  | Ir.Const (2, 42) -> ()
  | i -> Alcotest.failf "expected Const(2,42), got %s" (Fmt.str "%a" Pp.pp_instr i))

let test_constprop_folds_branch () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 2;
      blocks =
        [|
          { Ir.instrs = [| Ir.Const (0, 1) |]; term = Ir.Branch (0, 1, 2) };
          { Ir.instrs = [| Ir.Const (1, 10) |]; term = Ir.Ret 1 };
          { Ir.instrs = [| Ir.Const (1, 20) |]; term = Ir.Ret 1 };
        |];
    }
  in
  let p = { Ir.pname = "t"; methods = [| m |]; classes = [||]; main = 0 } in
  let m', stats = Constprop.run p m in
  Alcotest.(check int) "branch folded" 1 stats.Constprop.branches_folded;
  (match m'.Ir.blocks.(0).Ir.term with
  | Ir.Jump 1 -> ()
  | _ -> Alcotest.fail "expected jump to then-branch")

let test_constprop_identity_simplification () =
  let p, m =
    build_single ~nregs:3
      ~instrs:[| Ir.Const (0, 0); Ir.Load (1, 0, 1); Ir.Binop (Ir.Add, 2, 1, 0) |]
      ~term:(Ir.Ret 2)
  in
  (* r1 is unknown (load), r0 = 0: r1 + 0 should become a move. *)
  let m', _ = Constprop.run p m in
  match m'.Ir.blocks.(0).Ir.instrs.(2) with
  | Ir.Move (2, 1) -> ()
  | i -> Alcotest.failf "expected Move(2,1), got %s" (Fmt.str "%a" Pp.pp_instr i)

let test_constprop_devirtualizes () =
  let b = B.create "devirt" in
  let impl =
    B.method_ b ~name:"impl" ~nargs:2 (fun mb ->
        let r = B.add mb 0 1 in
        B.ret mb r)
  in
  let k = B.new_class b ~name:"k" ~vtable:[| impl |] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let o = B.alloc mb k ~slots:1 in
        let x = B.const mb 5 in
        let r = B.call_virt mb ~slot:0 o [ x ] in
        B.ret mb r)
  in
  B.set_main b main;
  let p = B.finish b in
  let m', stats = Constprop.run p p.Ir.methods.(main) in
  Alcotest.(check int) "one devirtualized" 1 stats.Constprop.devirtualized;
  let has_static_call =
    Array.exists
      (fun blk -> Array.exists (fun i -> match i with Ir.Call (_, t, _) -> t = impl | _ -> false)
          blk.Ir.instrs)
      m'.Ir.blocks
  in
  Alcotest.(check bool) "virtual became static" true has_static_call

let test_constprop_join_conflicting_consts () =
  (* Diamond assigning different constants must NOT fold the use. *)
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 1; nregs = 3;
      blocks =
        [|
          { Ir.instrs = [||]; term = Ir.Branch (0, 1, 2) };
          { Ir.instrs = [| Ir.Const (1, 1) |]; term = Ir.Jump 3 };
          { Ir.instrs = [| Ir.Const (1, 2) |]; term = Ir.Jump 3 };
          { Ir.instrs = [| Ir.Move (2, 1) |]; term = Ir.Ret 2 };
        |];
    }
  in
  let p = { Ir.pname = "t"; methods = [| m |]; classes = [||]; main = 0 } in
  (* main must have 0 args to validate; skip validation here on purpose and
     just check the rewrite. *)
  let m', _ = Constprop.run p m in
  match m'.Ir.blocks.(3).Ir.instrs.(0) with
  | Ir.Move (2, 1) -> ()
  | i -> Alcotest.failf "join folded incorrectly: %s" (Fmt.str "%a" Pp.pp_instr i)

(* --- Copyprop --- *)

let test_copyprop_rewrites_local_use () =
  let p, m =
    build_single ~nregs:3
      ~instrs:[| Ir.Const (0, 5); Ir.Move (1, 0); Ir.Binop (Ir.Add, 2, 1, 1) |]
      ~term:(Ir.Ret 2)
  in
  ignore p;
  let m', n = Copyprop.run m in
  Alcotest.(check bool) "rewrote uses" true (n >= 2);
  match m'.Ir.blocks.(0).Ir.instrs.(2) with
  | Ir.Binop (Ir.Add, 2, 0, 0) -> ()
  | i -> Alcotest.failf "expected Add(2,0,0), got %s" (Fmt.str "%a" Pp.pp_instr i)

let test_copyprop_invalidated_by_redefinition () =
  let p, m =
    build_single ~nregs:3
      ~instrs:
        [| Ir.Const (0, 5); Ir.Move (1, 0); Ir.Const (0, 9); Ir.Binop (Ir.Add, 2, 1, 1) |]
      ~term:(Ir.Ret 2)
  in
  ignore p;
  let m', _ = Copyprop.run m in
  (* After r0 is redefined, r1 must not be rewritten back to r0. *)
  match m'.Ir.blocks.(0).Ir.instrs.(3) with
  | Ir.Binop (Ir.Add, 2, 1, 1) -> ()
  | i -> Alcotest.failf "copy used after invalidation: %s" (Fmt.str "%a" Pp.pp_instr i)

let test_copyprop_copies_stay_in_their_block () =
  (* Copies are block-local: neither r1 := r0 (block 0) nor r3 := r2
     (block 1) may rewrite a use in a successor block. *)
  let blocks =
    [|
      { Ir.instrs = [| Ir.Const (0, 5); Ir.Move (1, 0) |]; term = Ir.Jump 1 };
      { Ir.instrs = [| Ir.Binop (Ir.Add, 2, 1, 1); Ir.Move (3, 2) |]; term = Ir.Jump 2 };
      { Ir.instrs = [| Ir.Binop (Ir.Add, 4, 3, 1) |]; term = Ir.Ret 3 };
    |]
  in
  let m = { Ir.mid = 0; mname = "m"; nargs = 0; nregs = 5; blocks } in
  let m', n = Copyprop.run m in
  Alcotest.(check int) "nothing rewritten" 0 n;
  Array.iteri
    (fun bi blk ->
      Alcotest.(check bool) (Printf.sprintf "block %d unchanged" bi) true
        (blk = m'.Ir.blocks.(bi)))
    blocks

(* --- Constprop under systhreads --- *)

let test_constprop_threads_share_domain () =
  (* Systhreads of one domain share constprop's per-domain lattice scratch:
     two threads compiling the same big methods at once must each get what
     a sequential compile gets. *)
  let program = Inltune_workloads.Suites.program (Inltune_workloads.Suites.find "jess") in
  let greedy = Heuristic.of_array (Array.map snd Heuristic.ranges) in
  let compile () =
    Array.map (fun m -> fst (Pipeline.run program (Pipeline.opt_config greedy) m)) program.Ir.methods
  in
  let expected = compile () in
  let mismatches = Atomic.make 0 in
  let worker () =
    for _ = 1 to 5 do
      if compile () <> expected then Atomic.incr mismatches
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "concurrent compiles match sequential" 0 (Atomic.get mismatches)

let test_cse_copyprop_threads_share_domain () =
  (* cse's value-number tables and copyprop's copy tables are per-domain
     scratch too: two threads of one domain running both passes over the
     same freshly inlined bodies must each get what a sequential run gets. *)
  let program = Inltune_workloads.Suites.program (Inltune_workloads.Suites.find "jess") in
  let greedy = Heuristic.of_array (Array.map snd Heuristic.ranges) in
  let inline_only =
    Pipeline.make ~plan:(Plan.without_dataflow Plan.default) (Decider.Heuristic greedy)
  in
  let bodies = Array.map (fun m -> fst (Pipeline.run program inline_only m)) program.Ir.methods in
  let passes () =
    Array.map
      (fun m ->
        let m, replaced = Cse.run m in
        let m, rewritten = Copyprop.run m in
        (m, replaced, rewritten))
      bodies
  in
  let expected = passes () in
  Alcotest.(check bool) "both passes rewrite something" true
    (Array.exists (fun (_, r, _) -> r > 0) expected
    && Array.exists (fun (_, _, w) -> w > 0) expected);
  let mismatches = Atomic.make 0 in
  let worker () =
    for _ = 1 to 20 do
      if passes () <> expected then Atomic.incr mismatches
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "concurrent passes match sequential" 0 (Atomic.get mismatches)

(* --- DCE --- *)

let test_dce_removes_dead_pure () =
  let p, m =
    build_single ~nregs:3
      ~instrs:[| Ir.Const (0, 5); Ir.Const (1, 6); Ir.Binop (Ir.Mul, 2, 1, 1) |]
      ~term:(Ir.Ret 0)
  in
  ignore p;
  let m', removed = Dce.run m in
  Alcotest.(check int) "removed two" 2 removed;
  Alcotest.(check int) "one instr left" 1 (Array.length m'.Ir.blocks.(0).Ir.instrs)

let test_dce_keeps_side_effects () =
  let p, m =
    build_single ~nregs:2
      ~instrs:[| Ir.Const (0, 5); Ir.Print 0; Ir.Const (1, 7) |]
      ~term:(Ir.Ret 0)
  in
  ignore p;
  let m', removed = Dce.run m in
  Alcotest.(check int) "only dead const removed" 1 removed;
  Alcotest.(check bool) "print kept" true
    (Array.exists (fun i -> i = Ir.Print 0) m'.Ir.blocks.(0).Ir.instrs)

let test_dce_keeps_calls () =
  let b = B.create "dcecall" in
  let f = B.method_ b ~name:"f" ~nargs:0 (fun mb ->
      let r = B.const mb 1 in
      B.print mb r;
      B.ret mb r)
  in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let _dead = B.call mb f [] in
        let z = B.const mb 0 in
        B.ret mb z)
  in
  B.set_main b main;
  let p = B.finish b in
  let m', _ = Dce.run p.Ir.methods.(main) in
  Alcotest.(check int) "call kept" 1 (count_calls m')

let test_dce_loop_liveness () =
  (* A value defined before a loop and used inside it stays live. *)
  let b = B.create "dceloop" in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let step = B.const mb 3 in
        let acc = B.fresh_reg mb in
        B.emit mb (Ir.Const (acc, 0));
        let n = B.const mb 4 in
        B.for_loop mb ~n (fun _i -> B.emit mb (Ir.Binop (Ir.Add, acc, acc, step)));
        B.ret mb acc)
  in
  B.set_main b main;
  let p = B.finish b in
  let m', _ = Dce.run p.Ir.methods.(main) in
  let has_step_const =
    Array.exists
      (fun blk -> Array.exists (fun i -> i = Ir.Const (0, 3)) blk.Ir.instrs)
      m'.Ir.blocks
  in
  Alcotest.(check bool) "loop-carried input kept" true has_step_const

(* --- Cleanup --- *)

let test_cleanup_threads_jumps () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 1;
      blocks =
        [|
          { Ir.instrs = [||]; term = Ir.Jump 1 };
          { Ir.instrs = [||]; term = Ir.Jump 2 };
          { Ir.instrs = [| Ir.Const (0, 1) |]; term = Ir.Ret 0 };
        |];
    }
  in
  let m' = Cleanup.run m in
  Alcotest.(check int) "empty hop removed" 2 (Array.length m'.Ir.blocks)

let test_cleanup_drops_unreachable () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 1;
      blocks =
        [|
          { Ir.instrs = [| Ir.Const (0, 1) |]; term = Ir.Ret 0 };
          { Ir.instrs = [| Ir.Const (0, 2) |]; term = Ir.Ret 0 };
        |];
    }
  in
  let m' = Cleanup.run m in
  Alcotest.(check int) "unreachable dropped" 1 (Array.length m'.Ir.blocks)

let test_cleanup_folds_equal_branch () =
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 1;
      blocks =
        [|
          { Ir.instrs = [| Ir.Const (0, 1) |]; term = Ir.Branch (0, 1, 1) };
          { Ir.instrs = [||]; term = Ir.Ret 0 };
        |];
    }
  in
  let m' = Cleanup.run m in
  match m'.Ir.blocks.(0).Ir.term with
  | Ir.Jump _ -> ()
  | _ -> Alcotest.fail "branch with equal arms not folded"

let test_cleanup_keeps_empty_loop () =
  (* An empty infinite loop must not be threaded into oblivion. *)
  let m =
    {
      Ir.mid = 0; mname = "m"; nargs = 0; nregs = 1;
      blocks = [| { Ir.instrs = [||]; term = Ir.Jump 0 } |];
    }
  in
  let m' = Cleanup.run m in
  Alcotest.(check int) "loop intact" 1 (Array.length m'.Ir.blocks)

(* --- Pipeline --- *)

let test_pipeline_stats_sizes () =
  let p, _, _, main = tiny_with_helper () in
  let cfg = Pipeline.opt_config Heuristic.default in
  let _, stats = Pipeline.run p cfg p.Ir.methods.(main) in
  Alcotest.(check bool) "peak >= before" true (stats.Pipeline.size_peak >= stats.Pipeline.size_before);
  Alcotest.(check bool) "sites inlined" true (stats.Pipeline.sites_inlined > 0)

let test_pipeline_no_inline_config () =
  let p, _, _, main = tiny_with_helper () in
  let m, stats = Pipeline.run p Pipeline.no_inline_config p.Ir.methods.(main) in
  Alcotest.(check int) "nothing inlined" 0 stats.Pipeline.sites_inlined;
  Alcotest.(check int) "call survives" 1 (count_calls m)

let test_pipeline_folds_after_inline () =
  (* main calls helper with a constant; after inlining, constprop folds the
     entire computation down to constants and DCE erases the rest. *)
  let p, _, _, main = tiny_with_helper () in
  let cfg = Pipeline.opt_config Heuristic.default in
  let m, _ = Pipeline.run p cfg p.Ir.methods.(main) in
  Alcotest.(check int) "no calls" 0 (count_calls m);
  Alcotest.(check bool) "smaller than inlined peak" true
    (Size.of_method m < Size.of_method p.Ir.methods.(main) + Size.of_method p.Ir.methods.(1))

let suite =
  [
    ("fig3: callee too big", `Quick, test_fig3_callee_too_big);
    ("fig3: always-inline precedes depth", `Quick, test_fig3_always_inline_beats_depth);
    ("fig3: always-inline precedes caller", `Quick, test_fig3_always_inline_beats_caller);
    ("fig3: depth limit", `Quick, test_fig3_depth_limit);
    ("fig3: caller limit", `Quick, test_fig3_caller_limit);
    ("fig3: all tests pass -> yes", `Quick, test_fig3_all_tests_pass);
    ("fig4: hot test", `Quick, test_fig4_hot);
    ("never heuristic", `Quick, test_never_heuristic);
    ("heuristic genome roundtrip", `Quick, test_heuristic_roundtrip);
    ("heuristic of_array arity", `Quick, test_heuristic_of_array_arity);
    ("heuristic of_array clamps", `Quick, test_heuristic_of_array_clamps);
    ("heuristic clamp", `Quick, test_clamp_to_ranges);
    ("heuristic ranges match Table 1", `Quick, test_ranges_match_paper);
    ("heuristic defaults match Jikes", `Quick, test_default_matches_jikes);
    ("inline removes calls", `Quick, test_inline_removes_call);
    ("inline with never is identity-shaped", `Quick, test_inline_never_heuristic_is_identity_shape);
    ("inline depth 0 blocks band callees", `Quick, test_inline_depth_zero_blocks_band);
    ("inline respects callee max", `Quick, test_inline_respects_callee_max);
    ("inline recursion guard", `Quick, test_inline_recursion_guard);
    ("inline grows registers and blocks", `Quick, test_inline_grows_registers_not_blocks_lost);
    ("inline hot-site path", `Quick, test_inline_hot_site_path);
    ("decision reasons: default heuristic", `Quick, test_decision_reasons_default);
    ("decision reasons: never heuristic", `Quick, test_decision_reasons_never);
    ("decision reasons: recursion", `Quick, test_decision_reasons_recursive);
    ("decision reasons: hot path", `Quick, test_decision_reasons_hot);
    ("constprop folds binops", `Quick, test_constprop_folds_binop);
    ("constprop folds branches", `Quick, test_constprop_folds_branch);
    ("constprop identity simplification", `Quick, test_constprop_identity_simplification);
    ("constprop devirtualizes", `Quick, test_constprop_devirtualizes);
    ("constprop join of conflicting constants", `Quick, test_constprop_join_conflicting_consts);
    ("copyprop rewrites local uses", `Quick, test_copyprop_rewrites_local_use);
    ("copyprop invalidation", `Quick, test_copyprop_invalidated_by_redefinition);
    ("dce removes dead pure code", `Quick, test_dce_removes_dead_pure);
    ("dce keeps side effects", `Quick, test_dce_keeps_side_effects);
    ("dce keeps calls", `Quick, test_dce_keeps_calls);
    ("dce loop liveness", `Quick, test_dce_loop_liveness);
    ("cleanup threads jumps", `Quick, test_cleanup_threads_jumps);
    ("cleanup drops unreachable blocks", `Quick, test_cleanup_drops_unreachable);
    ("cleanup folds equal branches", `Quick, test_cleanup_folds_equal_branch);
    ("cleanup keeps empty loops", `Quick, test_cleanup_keeps_empty_loop);
    ("pipeline size stats", `Quick, test_pipeline_stats_sizes);
    ("pipeline no-inline config", `Quick, test_pipeline_no_inline_config);
    ("pipeline folds after inline", `Quick, test_pipeline_folds_after_inline);
  ]

(* --- CSE --- *)

let test_cse_replaces_recomputation () =
  let p, m =
    build_single ~nregs:5
      ~instrs:
        [|
          Ir.Const (0, 3); Ir.Const (1, 4);
          Ir.Binop (Ir.Mul, 2, 0, 1);
          Ir.Binop (Ir.Mul, 3, 0, 1);
          Ir.Binop (Ir.Add, 4, 2, 3);
        |]
      ~term:(Ir.Ret 4)
  in
  ignore p;
  let m', n = Cse.run m in
  Alcotest.(check bool) "replaced at least one" true (n >= 1);
  (match m'.Ir.blocks.(0).Ir.instrs.(3) with
  | Ir.Move (3, 2) -> ()
  | i -> Alcotest.failf "expected Move(3,2), got %s" (Fmt.str "%a" Pp.pp_instr i))

let test_cse_commutative () =
  let p, m =
    build_single ~nregs:5
      ~instrs:
        [|
          Ir.Const (0, 3); Ir.Const (1, 4);
          Ir.Binop (Ir.Add, 2, 0, 1);
          Ir.Binop (Ir.Add, 3, 1, 0);
          Ir.Binop (Ir.Add, 4, 2, 3);
        |]
      ~term:(Ir.Ret 4)
  in
  ignore p;
  let m', _ = Cse.run m in
  match m'.Ir.blocks.(0).Ir.instrs.(3) with
  | Ir.Move (3, 2) -> ()
  | i -> Alcotest.failf "a+b vs b+a not unified: %s" (Fmt.str "%a" Pp.pp_instr i)

let test_cse_not_commutative_for_sub () =
  let p, m =
    build_single ~nregs:5
      ~instrs:
        [|
          Ir.Const (0, 3); Ir.Const (1, 4);
          Ir.Binop (Ir.Sub, 2, 0, 1);
          Ir.Binop (Ir.Sub, 3, 1, 0);
          Ir.Binop (Ir.Add, 4, 2, 3);
        |]
      ~term:(Ir.Ret 4)
  in
  ignore p;
  let m', _ = Cse.run m in
  match m'.Ir.blocks.(0).Ir.instrs.(3) with
  | Ir.Binop (Ir.Sub, 3, 1, 0) -> ()
  | i -> Alcotest.failf "a-b wrongly unified with b-a: %s" (Fmt.str "%a" Pp.pp_instr i)

let test_cse_respects_redefinition () =
  let p, m =
    build_single ~nregs:4
      ~instrs:
        [|
          Ir.Const (0, 3); Ir.Const (1, 4);
          Ir.Binop (Ir.Mul, 2, 0, 1);
          Ir.Const (0, 9);
          Ir.Binop (Ir.Mul, 3, 0, 1);
        |]
      ~term:(Ir.Ret 3)
  in
  ignore p;
  let m', _ = Cse.run m in
  (* r0 changed between the two multiplies: the second must stay. *)
  match m'.Ir.blocks.(0).Ir.instrs.(4) with
  | Ir.Binop (Ir.Mul, 3, 0, 1) -> ()
  | i -> Alcotest.failf "stale CSE reuse: %s" (Fmt.str "%a" Pp.pp_instr i)

(* --- ClassOf / guarded devirtualization --- *)

let devirt_program () =
  let b = B.create "gd" in
  let impl_a =
    B.method_ b ~name:"impl_a" ~nargs:2 (fun mb ->
        let one = B.const mb 1 in
        let r = B.add mb 1 one in
        B.ret mb r)
  in
  let impl_b =
    B.method_ b ~name:"impl_b" ~nargs:2 (fun mb ->
        let two = B.const mb 2 in
        let r = B.mul mb 1 two in
        B.ret mb r)
  in
  let ka = B.new_class b ~name:"ka" ~vtable:[| impl_a |] in
  let kb = B.new_class b ~name:"kb" ~vtable:[| impl_b |] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let oa = B.alloc mb ka ~slots:0 in
        let x = B.const mb 10 in
        let r = B.call_virt mb ~slot:0 oa [ x ] in
        B.print mb r;
        B.ret mb r)
  in
  B.set_main b main;
  (B.finish b, impl_a, impl_b, ka, kb, main)

let test_classof_interp () =
  let b = B.create "co" in
  let k0 = B.new_class b ~name:"k0" ~vtable:[||] in
  let k1 = B.new_class b ~name:"k1" ~vtable:[||] in
  let main =
    B.method_ b ~name:"main" ~nargs:0 (fun mb ->
        let _o0 = B.alloc mb k0 ~slots:0 in
        let o1 = B.alloc mb k1 ~slots:0 in
        let c = B.class_of mb o1 in
        B.ret mb c)
  in
  B.set_main b main;
  let p = B.finish b in
  let ret, _ = Inltune_vm.Runner.observe Inltune_vm.Platform.x86 p in
  Alcotest.(check int) "classof reads the header" k1 ret

let test_guarded_devirt_rewrites_monomorphic () =
  let p, impl_a, _, ka, _, main = devirt_program () in
  let oracle ~site_owner:_ ~slot:_ = Some ka in
  let m', stats = Guarded_devirt.run ~program:p ~oracle p.Ir.methods.(main) in
  Alcotest.(check int) "one site guarded" 1 stats.Guarded_devirt.sites_guarded;
  let has_static =
    Array.exists
      (fun blk ->
        Array.exists
          (fun i -> match i with Ir.Call (_, t, _) -> t = impl_a | _ -> false)
          blk.Ir.instrs)
      m'.Ir.blocks
  in
  Alcotest.(check bool) "guarded static call emitted" true has_static;
  Validate.check_exn
    { p with Ir.methods = Array.map (fun x -> if x.Ir.mid = main then m' else x) p.Ir.methods }

let test_guarded_devirt_none_oracle_is_identity () =
  let p, _, _, _, _, main = devirt_program () in
  let oracle ~site_owner:_ ~slot:_ = None in
  let m', stats = Guarded_devirt.run ~program:p ~oracle p.Ir.methods.(main) in
  Alcotest.(check int) "nothing guarded" 0 stats.Guarded_devirt.sites_guarded;
  Alcotest.(check int) "same blocks" (Array.length p.Ir.methods.(main).Ir.blocks)
    (Array.length m'.Ir.blocks)

let test_guarded_devirt_wrong_profile_still_correct () =
  (* Guard against the WRONG class: the slow path must preserve semantics. *)
  let p, _, _, _, kb, main = devirt_program () in
  let reference = Inltune_vm.Runner.observe Inltune_vm.Platform.x86 p in
  let oracle ~site_owner:_ ~slot:_ = Some kb in
  let m', stats = Guarded_devirt.run ~program:p ~oracle p.Ir.methods.(main) in
  Alcotest.(check int) "guard emitted" 1 stats.Guarded_devirt.sites_guarded;
  let p' = { p with Ir.methods = Array.map (fun x -> if x.Ir.mid = main then m' else x) p.Ir.methods } in
  let result = Inltune_vm.Runner.observe Inltune_vm.Platform.x86 p' in
  Alcotest.(check (pair int (array int))) "stale guard falls through" reference result

let test_oracle_of_profile_monomorphic () =
  let p, impl_a, _, ka, _, main = devirt_program () in
  let edge_count ~site_owner ~callee =
    if site_owner = main && callee = impl_a then 42 else 0
  in
  let oracle = Guarded_devirt.oracle_of_profile ~program:p ~edge_count in
  Alcotest.(check (option int)) "single receiver found" (Some ka)
    (oracle ~site_owner:main ~slot:0)

let test_oracle_of_profile_polymorphic () =
  let p, impl_a, impl_b, _, _, main = devirt_program () in
  let edge_count ~site_owner:_ ~callee = if callee = impl_a || callee = impl_b then 5 else 0 in
  let oracle = Guarded_devirt.oracle_of_profile ~program:p ~edge_count in
  Alcotest.(check (option int)) "polymorphic site refused" None (oracle ~site_owner:main ~slot:0)

let extra_suite =
  [
    ("cse replaces recomputation", `Quick, test_cse_replaces_recomputation);
    ("cse commutative unification", `Quick, test_cse_commutative);
    ("cse keeps non-commutative apart", `Quick, test_cse_not_commutative_for_sub);
    ("cse respects redefinition", `Quick, test_cse_respects_redefinition);
    ("classof reads header", `Quick, test_classof_interp);
    ("guarded devirt rewrites monomorphic site", `Quick, test_guarded_devirt_rewrites_monomorphic);
    ("guarded devirt identity without oracle", `Quick, test_guarded_devirt_none_oracle_is_identity);
    ("guarded devirt correct under stale profile", `Quick, test_guarded_devirt_wrong_profile_still_correct);
    ("profile oracle finds monomorphic sites", `Quick, test_oracle_of_profile_monomorphic);
    ("profile oracle refuses polymorphic sites", `Quick, test_oracle_of_profile_polymorphic);
  ]

let suite =
  suite @ extra_suite
  @ [
      ("copyprop copies stay in their block", `Quick, test_copyprop_copies_stay_in_their_block);
      ("constprop threads share a domain", `Quick, test_constprop_threads_share_domain);
      ("cse and copyprop threads share a domain", `Quick, test_cse_copyprop_threads_share_domain);
    ]
