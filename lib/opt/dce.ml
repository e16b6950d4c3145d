open Inltune_jir
(* Dead-code elimination by global liveness.

   Backward dataflow: a register is live at a point if some path from there
   reads it before writing it.  Pure instructions (no side effect beyond
   their destination) whose destination is dead are deleted.  Calls, stores
   and prints are always kept.

   Together with constant propagation this removes the computation that
   folding made redundant — most of the code-size payback the optimizing
   compiler gets for having inlined.

   Live sets are bit vectors packed into int arrays (one [words]-sized slice
   per block) and the per-instruction transfer sets/clears bits via direct
   matches, with no per-instruction allocation: liveness runs inside every
   optimizing compile and dominates its wall time on big post-inlining
   methods.  The fixpoint is the unique least solution, so the result is
   identical to the straightforward set-based formulation. *)

(* Liveness is O(blocks * registers); monster methods produced by maximally
   aggressive inlining are skipped, mirroring [Constprop.analysis_budget]. *)
let analysis_budget = 2_000_000

(* Per-domain scratch for the two [nblocks * words] liveness tables, cleared
   per run: allocated fresh, they were the largest share of the big blocks
   each optimizing compile allocates directly in the major heap. *)
let live_scratch =
  Inltune_support.Scratch.create
    ~size:(fun (live_in, _) -> Array.length live_in)
    ~make:(fun n -> (Array.make n 0, Array.make n 0))

let run m =
  if Array.length m.Ir.blocks * m.Ir.nregs > analysis_budget then (m, 0)
  else begin
    let blocks = m.Ir.blocks in
    let nblocks = Array.length blocks in
    let nregs = m.Ir.nregs in
    let words = (nregs + 62) / 63 in
    let ((live_in, live_out) as scratch) =
      Inltune_support.Scratch.take live_scratch (nblocks * words)
    in
    Array.fill live_in 0 (nblocks * words) 0;
    Array.fill live_out 0 (nblocks * words) 0;
    (* The block being transferred, as a scratch bit vector. *)
    let cur = Array.make words 0 in
    let set r = cur.(r / 63) <- cur.(r / 63) lor (1 lsl (r mod 63)) in
    let clear r = cur.(r / 63) <- cur.(r / 63) land lnot (1 lsl (r mod 63)) in
    let mem r = cur.(r / 63) land (1 lsl (r mod 63)) <> 0 in
    let add_uses = function
      | Ir.Const _ | Ir.Alloc _ -> ()
      | Ir.Move (_, s) -> set s
      | Ir.Binop (_, _, a, b) | Ir.Cmp (_, _, a, b) ->
        set a;
        set b
      | Ir.Load (_, o, _) -> set o
      | Ir.Store (o, _, s) ->
        set o;
        set s
      | Ir.LoadIdx (_, o, ix) ->
        set o;
        set ix
      | Ir.StoreIdx (o, ix, s) ->
        set o;
        set ix;
        set s
      | Ir.ClassOf (_, o) -> set o
      | Ir.Call (_, _, args) -> Array.iter set args
      | Ir.CallVirt (_, _, recv, args) ->
        set recv;
        Array.iter set args
      | Ir.Print s -> set s
    in
    let clear_def = function
      | Ir.Const (d, _)
      | Ir.Move (d, _)
      | Ir.Binop (_, d, _, _)
      | Ir.Cmp (_, d, _, _)
      | Ir.Load (d, _, _)
      | Ir.LoadIdx (d, _, _)
      | Ir.ClassOf (d, _)
      | Ir.Alloc (d, _, _)
      | Ir.Call (d, _, _)
      | Ir.CallVirt (d, _, _, _) -> clear d
      | Ir.Store _ | Ir.StoreIdx _ | Ir.Print _ -> ()
    in
    let add_term_uses = function
      | Ir.Jump _ -> ()
      | Ir.Branch (c, _, _) -> set c
      | Ir.Ret r -> set r
    in
    (* Predecessor lists for the backward worklist. *)
    let preds = Array.make nblocks [] in
    Array.iteri
      (fun bi blk ->
        List.iter (fun s -> preds.(s) <- bi :: preds.(s)) (Ir.successors blk.Ir.term))
      blocks;
    (* cur <- live-in of [bi], computed from the stored live-out. *)
    let transfer bi =
      Array.blit live_out (bi * words) cur 0 words;
      let blk = blocks.(bi) in
      add_term_uses blk.Ir.term;
      let instrs = blk.Ir.instrs in
      for k = Array.length instrs - 1 downto 0 do
        let i = instrs.(k) in
        clear_def i;
        add_uses i
      done
    in
    (* Allocation-free worklist: an int stack with an on-stack flag so a
       block is never queued twice.  The fixpoint is the unique least
       solution, so visit order (and hence the switch from the previous
       FIFO with duplicates) cannot change the resulting live sets — it
       only avoids redundant transfers of already-queued blocks. *)
    let work = Array.make nblocks 0 in
    let on_work = Bytes.make nblocks '\001' in
    let sp = ref nblocks in
    (* Popped top-down, so the last block comes off first — the same
       late-blocks-first start order the previous FIFO used, which is the
       fast direction for a backward analysis. *)
    for bi = 0 to nblocks - 1 do
      work.(bi) <- bi
    done;
    while !sp > 0 do
      decr sp;
      let bi = work.(!sp) in
      Bytes.unsafe_set on_work bi '\000';
      let ob = bi * words in
      Array.fill live_out ob words 0;
      (* Direct terminator match: [Ir.successors] allocates a list per
         fixpoint iteration, and this loop runs far more often than once
         per block. *)
      let merge s =
        let sb = s * words in
        for w = 0 to words - 1 do
          live_out.(ob + w) <- live_out.(ob + w) lor live_in.(sb + w)
        done
      in
      (match blocks.(bi).Ir.term with
      | Ir.Jump l -> merge l
      | Ir.Branch (_, t, f) ->
        merge t;
        merge f
      | Ir.Ret _ -> ());
      transfer bi;
      let ib = bi * words in
      let changed = ref false in
      for w = 0 to words - 1 do
        if cur.(w) <> live_in.(ib + w) then begin
          changed := true;
          live_in.(ib + w) <- cur.(w)
        end
      done;
      if !changed then
        List.iter
          (fun p ->
            if Bytes.unsafe_get on_work p = '\000' then begin
              Bytes.unsafe_set on_work p '\001';
              work.(!sp) <- p;
              incr sp
            end)
          preds.(bi)
    done;
    let removed = ref 0 in
    let blocks' =
      Array.mapi
        (fun bi blk ->
          Array.blit live_out (bi * words) cur 0 words;
          add_term_uses blk.Ir.term;
          let instrs = blk.Ir.instrs in
          let n = Array.length instrs in
          let keep = Array.make n true in
          let kept = ref 0 in
          for k = n - 1 downto 0 do
            let i = instrs.(k) in
            let dead =
              Ir.pure i
              &&
              match i with
              | Ir.Const (d, _)
              | Ir.Move (d, _)
              | Ir.Binop (_, d, _, _)
              | Ir.Cmp (_, d, _, _)
              | Ir.Load (d, _, _)
              | Ir.LoadIdx (d, _, _)
              | Ir.ClassOf (d, _)
              | Ir.Alloc (d, _, _) -> not (mem d)
              | _ -> false
            in
            if dead then begin
              keep.(k) <- false;
              incr removed
            end
            else begin
              incr kept;
              clear_def i;
              add_uses i
            end
          done;
          if !kept = n then blk
          else begin
            let instrs' = Array.make !kept (Ir.Print 0) in
            let j = ref 0 in
            for k = 0 to n - 1 do
              if keep.(k) then begin
                instrs'.(!j) <- instrs.(k);
                incr j
              end
            done;
            { blk with Ir.instrs = instrs' }
          end)
        blocks
    in
    Inltune_support.Scratch.release live_scratch scratch;
    ({ m with Ir.blocks = blocks' }, !removed)
  end
