open Inltune_jir

(* Block-local common-subexpression elimination by value numbering over
   pure operators.  After inlining, the merged body frequently recomputes
   the same subexpression (the callee and caller both computed it), so CSE
   is another slice of inlining's indirect benefit.

   Available expressions are tracked per block as a map from an operator
   signature over *current* value numbers to the register holding the
   result.  Loads are not value-numbered (stores and calls would have to
   invalidate them); this pass only touches arithmetic.

   Keys and table entries are packed into immediate ints so the per
   instruction lookup/insert allocates nothing — this pass runs on every
   optimizing compile, and with a constructor key (the previous
   representation) the key allocation plus structural hashing dominated
   its wall time. *)

let commutative = function
  | Ir.Add | Ir.Mul | Ir.And | Ir.Or | Ir.Xor -> true
  | Ir.Sub | Ir.Div | Ir.Mod | Ir.Shl | Ir.Shr -> false

let binop_tag = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> 3
  | Ir.Mod -> 4
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Shr -> 9

let cmp_tag = function
  | Ir.Lt -> 10
  | Ir.Le -> 11
  | Ir.Eq -> 12
  | Ir.Ne -> 13
  | Ir.Gt -> 14
  | Ir.Ge -> 15

(* vns.(r) = the value number currently held by register r, valid only
   when stamp.(r) is the current block's epoch; otherwise r holds its
   initial value number -r - 1.  Epoch stamping makes entering a block O(1)
   in nregs instead of re-initializing an nregs-sized array, and lets the
   tables be per-domain scratch (allocated per compile they were
   nregs-sized blocks churning the major heap) reused without clearing:
   the epoch only grows over a buffer's life, so a stamp left by an
   earlier run is never the current one. *)
type tables = {
  vns : int array;
  stamp : int array;
  mutable epoch : int;
}

let tables_scratch =
  Inltune_support.Scratch.create
    ~size:(fun t -> Array.length t.vns)
    ~make:(fun n -> { vns = Array.make n 0; stamp = Array.make n 0; epoch = 0 })

let run_with tables m =
  let nregs = m.Ir.nregs in
  let vns = tables.vns and stamp = tables.stamp in
  let replaced = ref 0 in
  (* Fresh value numbers are unique across the whole method (the counter is
     not reset per block), which is what lets one hash table serve every
     block without clearing: a stale entry (r, v) from an earlier block can
     never validate, because in the current block [vn r] is either r's
     initial negative number or a number minted after v — never v itself
     (copies only propagate numbers already live in this block).  Entry
     validity is still decided per lookup by the [vn r = v] check, exactly
     as before, so the shared table changes no decision. *)
  let next_vn = ref 0 in
  (* Value numbers live in [-nregs .. #defs]; biasing by nregs makes them
     non-negative so two of them pack into one int key next to the operator
     tag: tag(6 bits) | va(28) | vb(28), within the 63-bit int.  Methods
     stay far under 2^28 value numbers (the pipeline's growth budget caps
     body sizes), so the packing is never ambiguous.  Constants keep their
     own table because a program constant can be any int.  Entries pack
     (register, value number at insert) the same way. *)
  let bias = nregs in
  let pack_entry r v = ((v + bias) lsl 28) lor r in
  let table : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let const_table : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let blocks =
    Array.map
      (fun blk ->
        tables.epoch <- tables.epoch + 1;
        let e = tables.epoch in
        let vn r = if stamp.(r) = e then vns.(r) else -r - 1 in
        let set_vn r v =
          stamp.(r) <- e;
          vns.(r) <- v
        in
        let fresh_vn r =
          incr next_vn;
          set_vn r !next_vn
        in
        (* key -> (register holding the value, its value number at insert).
           When a register is redefined, stale entries pointing at it must not
           be reused: we key the check on value numbers, so it is enough to
           verify that the memoized register still holds the value number it
           had when inserted. *)
        let lookup tbl key =
          match Hashtbl.find_opt tbl key with
          | Some packed ->
            let r = packed land 0xFFFFFFF in
            let v = (packed lsr 28) - bias in
            if vn r = v then r else -1
          | None -> -1
        in
        let remember tbl key r = Hashtbl.replace tbl key (pack_entry r (vn r)) in
        (* Copy-on-write on the block's instruction array: blocks with no
           repeated subexpression (the common case) are returned as-is. *)
        let instrs0 = blk.Ir.instrs in
        let out = ref instrs0 in
        let replace k i' =
          if !out == instrs0 then out := Array.copy instrs0;
          (!out).(k) <- i'
        in
        Array.iteri
          (fun k i ->
            match i with
            | Ir.Binop (op, d, a, b) ->
              let va, vb =
                let na = vn a and nb = vn b in
                if commutative op && na > nb then (nb, na) else (na, nb)
              in
              let key = (binop_tag op lsl 56) lor ((va + bias) lsl 28) lor (vb + bias) in
              let r = lookup table key in
              if r >= 0 then begin
                incr replaced;
                set_vn d (vn r);
                replace k (Ir.Move (d, r))
              end
              else begin
                fresh_vn d;
                remember table key d
              end
            | Ir.Cmp (op, d, a, b) ->
              let key =
                (cmp_tag op lsl 56) lor ((vn a + bias) lsl 28) lor (vn b + bias)
              in
              let r = lookup table key in
              if r >= 0 then begin
                incr replaced;
                set_vn d (vn r);
                replace k (Ir.Move (d, r))
              end
              else begin
                fresh_vn d;
                remember table key d
              end
            | Ir.Const (d, v) ->
              let r = lookup const_table v in
              if r >= 0 then begin
                incr replaced;
                set_vn d (vn r);
                replace k (Ir.Move (d, r))
              end
              else begin
                fresh_vn d;
                remember const_table v d
              end
            | Ir.Move (d, s) -> set_vn d (vn s)
            | _ ->
              let d = Ir.def_reg i in
              if d >= 0 then fresh_vn d)
          instrs0;
        if !out == instrs0 then blk else { blk with Ir.instrs = !out })
      m.Ir.blocks
  in
  ({ m with Ir.blocks }, !replaced)

let run m =
  let tables = Inltune_support.Scratch.take tables_scratch m.Ir.nregs in
  Fun.protect
    ~finally:(fun () -> Inltune_support.Scratch.release tables_scratch tables)
    (fun () -> run_with tables m)
