open Inltune_jir

(* Linear-scan register allocation — as a *cost model*, not a transformation.

   Inlining merges register spaces: a method that swallowed five callees
   carries all their virtual registers, and on a register-starved machine
   (x86 of the paper's era had 8 GPRs) the allocator starts spilling.  This
   module estimates that cost so aggressive inlining pays a running-time
   price beyond the I-cache: the classic third term in the inlining
   trade-off.

   We approximate live intervals over a linearization of the blocks: each
   virtual register's interval spans from its first to its last occurrence
   (occurrences in loops are covered because the loop's blocks are contiguous
   in builder output, and the conservative [min,max] span only ever
   *overestimates* pressure).  Standard linear scan then counts how many
   intervals must live in memory, and how many of their occurrences turn
   into loads/stores. *)

type result = {
  vregs : int;            (* virtual registers with at least one occurrence *)
  max_pressure : int;     (* peak simultaneously-live intervals *)
  spilled : int;          (* intervals assigned to stack slots *)
  spill_ops : int;        (* occurrences of spilled registers (memory ops) *)
}

(* The per-register tables of one allocation, sized by [nregs] and reused
   through a per-domain {!Inltune_support.Scratch} so a compile miss does
   not allocate four [nregs]-sized arrays in the major heap. *)
type tables = {
  first : int array;      (* first occurrence on the linear numbering; -1 = absent *)
  last : int array;       (* last occurrence *)
  count : int array;      (* occurrences *)
  intervals : int array;  (* present registers, staged before sorting *)
}

let tables_scratch =
  Inltune_support.Scratch.create
    ~size:(fun t -> Array.length t.first)
    ~make:(fun n ->
      {
        first = Array.make n 0;
        last = Array.make n 0;
        count = Array.make n 0;
        intervals = Array.make n 0;
      })

let occurrences t m =
  (* first.(r), last.(r), count.(r) over a linear numbering; -1 = absent *)
  let n = m.Ir.nregs in
  let first = t.first and last = t.last and count = t.count in
  Array.fill first 0 n (-1);
  Array.fill last 0 n (-1);
  Array.fill count 0 n 0;
  let pos = ref 0 in
  let touch r =
    if first.(r) < 0 then first.(r) <- !pos;
    last.(r) <- !pos;
    count.(r) <- count.(r) + 1
  in
  (* Arguments are live from entry. *)
  for r = 0 to m.Ir.nargs - 1 do
    touch r
  done;
  Array.iter
    (fun blk ->
      Array.iter
        (fun i ->
          incr pos;
          Ir.iter_uses touch i;
          let d = Ir.def_reg i in
          if d >= 0 then touch d)
        blk.Ir.instrs;
      incr pos;
      match blk.Ir.term with
      | Ir.Branch (c, _, _) -> touch c
      | Ir.Ret r -> touch r
      | Ir.Jump _ -> ())
    m.Ir.blocks

let run_with t ~phys_regs m =
  occurrences t m;
  let first = t.first and last = t.last and count = t.count in
  (* Present registers sorted by interval start, in place.  Ties broken by
     register index — the previous stable [List.sort] over an index-ordered
     list produced exactly that order, and tie order is observable (it decides
     which of two same-start intervals the scan considers first, and hence
     what spills). *)
  let nint = ref 0 in
  for r = 0 to m.Ir.nregs - 1 do
    if first.(r) >= 0 then begin
      t.intervals.(!nint) <- r;
      incr nint
    end
  done;
  let intervals = Array.sub t.intervals 0 !nint in
  Array.sort
    (fun a b ->
      let c = Int.compare first.(a) first.(b) in
      if c <> 0 then c else Int.compare a b)
    intervals;
  let vregs = Array.length intervals in
  (* Active list ordered by interval end (kept as a sorted list; methods have
     at most tens of simultaneously live values in practice). *)
  let active = ref [] in
  let max_pressure = ref 0 in
  let spilled = ref 0 in
  let spill_ops = ref 0 in
  let insert_by_end r l =
    let rec go = function
      | x :: rest when last.(x) <= last.(r) -> x :: go rest
      | rest -> r :: rest
    in
    go l
  in
  Array.iter
    (fun r ->
      (* Expire intervals that ended before this one starts. *)
      active := List.filter (fun x -> last.(x) >= first.(r)) !active;
      if List.length !active >= phys_regs then begin
        (* Spill the interval with the furthest end (it blocks the longest). *)
        match List.rev !active with
        | victim :: _ when last.(victim) > last.(r) ->
          active := insert_by_end r (List.filter (fun x -> x <> victim) !active);
          incr spilled;
          spill_ops := !spill_ops + count.(victim)
        | _ ->
          incr spilled;
          spill_ops := !spill_ops + count.(r)
      end
      else active := insert_by_end r !active;
      max_pressure := max !max_pressure (List.length !active + !spilled))
    intervals;
  { vregs; max_pressure = (if vregs = 0 then 0 else max !max_pressure 1); spilled = !spilled; spill_ops = !spill_ops }

let run ~phys_regs m =
  if phys_regs < 2 then invalid_arg "Regalloc.run: need at least 2 physical registers";
  let t = Inltune_support.Scratch.take tables_scratch m.Ir.nregs in
  Fun.protect
    ~finally:(fun () -> Inltune_support.Scratch.release tables_scratch t)
    (fun () -> run_with t ~phys_regs m)

(* Per-block-execution spill surcharge for the interpreter: total spill
   traffic spread across the method's blocks, scaled by the platform's
   memory cost. *)
let block_spill_cost (plat : Platform.t) m result =
  if result.spilled = 0 then 0
  else
    let nblocks = max 1 (Array.length m.Ir.blocks) in
    max 1 (result.spill_ops * plat.Platform.cost_mem / nblocks)
