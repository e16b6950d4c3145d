open Inltune_jir

(* Compile-once lowering of a method to a flat int-coded instruction stream.

   The tree-walking interpreter pays for boxed [Ir.instr] variants, a cost
   computation and an icache-address computation per executed instruction,
   and block-offset lookups per block.  Lowering pays all of that once per
   compile instead:

   - blocks are flattened into one stream; every block contributes a
     synthetic ENTER op (per-block fuel and spill-cost accounting) followed
     by its instructions and its terminator, and branch targets are resolved
     to the flat pc of the target block's ENTER;
   - each executed instruction's simulated cost (tier quality multiplier
     times the platform instruction cost) and icache address are precomputed;
   - static call sites are interned into dense {!Profile} site ids, so the
     interpreter's per-call profile update is one array increment;
   - the stream is packed into two words per instruction — [opc] carries the
     opcode in the low 8 bits with the precomputed cost above it, and [args]
     carries the three operand fields at 21 bits each — plus the icache
     address, so one executed step streams three array slots instead of six.
     Variable-length call argument lists and constant-pool values (a program
     constant can be any int, so it cannot live in a 21-bit field) are
     spilled into an [extra] pool.

   The lowering also re-validates every register, block target, operand
   field width, and callee id against the method being lowered, which is
   what licenses the unsafe array accesses in the flat interpreter's hot
   loop (pipeline output is not otherwise runtime-validated).

   Lowering is two steps.  [template] does all of the above except what
   depends on the VM: it leaves out the icache addresses and the call-site
   ids.  [instantiate] relocates a template to a code address and interns
   its call sites into a VM's profile — O(stream) copying, no validation,
   no IR.  Every tier lowers through both steps; the
   compiled-method cache keeps an optimized method's template, so a cache
   hit pays only for the relocation. *)

(* Opcode encoding.  [Machine]'s dispatch loop matches on these values as
   integer literals (OCaml patterns cannot name constants), and asserts at
   module init that the two stay in sync.

    0 const      x=dst  y=extra index of the value
    1 move       x=dst  y=src
    2..11 binop  x=dst  y=lhs  z=rhs   (add sub mul div mod and or xor shl shr)
   12..17 cmp    x=dst  y=lhs  z=rhs   (lt le eq ne gt ge)
   18 load       x=dst  y=obj  z=off
   19 store      x=obj  y=off  z=src
   20 loadidx    x=dst  y=obj  z=idx
   21 storeidx   x=obj  y=idx  z=src
   22 classof    x=dst  y=obj
   23 alloc      x=dst  y=kid  z=slots
   24 print      x=src
   25 call       x=dst  y=callee  z=extra offset -> [site id; nargs; args...]
   26 callvirt   x=dst  y=slot    z=extra offset -> [recv; nargs; args...]
   27 enter      (block entry: fuel + spill cost; never icache-touched)
   28 jump       x=target pc
   29 branch     x=cond  y=then pc  z=else pc
   30 ret        x=src *)

let op_const = 0
let op_move = 1
let op_binop_base = 2   (* + binop index, Add..Shr *)
let op_cmp_base = 12    (* + cmpop index, Lt..Ge *)
let op_load = 18
let op_store = 19
let op_loadidx = 20
let op_storeidx = 21
let op_classof = 22
let op_alloc = 23
let op_print = 24
let op_last_plain = 24  (* ops <= this share the plain-instruction prologue *)
let op_call = 25
let op_callvirt = 26
let op_enter = 27
let op_jump = 28
let op_branch = 29
let op_ret = 30

(* Operand fields are 21 bits: x | y<<21 | z<<42 fills the 63-bit int.
   Registers, flat pcs, extra-pool offsets, field offsets, callee and class
   ids all stay far below 2^21 for any body the pipeline's growth budget
   admits; [lower] rejects anything wider rather than truncating. *)
let field_bits = 21
let field_mask = (1 lsl field_bits) - 1

type code = {
  opc : int array;     (* opcode (low 8 bits) | (quality * platform cost) << 8 *)
  args : int array;    (* x | y << 21 | z << 42 *)
  iaddrs : int array;  (* icache address, precomputed *)
  extra : int array;   (* call operand pool and constant pool *)
  nregs : int;
  spill : int;         (* per-executed-block spill cost *)
}

(* Placeholder for unused frame-pool slots; never executed. *)
let dummy = { opc = [||]; args = [||]; iaddrs = [||]; extra = [||]; nregs = 0; spill = 0 }

let binop_code = function
  | Ir.Add -> 2 | Ir.Sub -> 3 | Ir.Mul -> 4 | Ir.Div -> 5 | Ir.Mod -> 6
  | Ir.And -> 7 | Ir.Or -> 8 | Ir.Xor -> 9 | Ir.Shl -> 10 | Ir.Shr -> 11

let cmpop_code = function
  | Ir.Lt -> 12 | Ir.Le -> 13 | Ir.Eq -> 14 | Ir.Ne -> 15 | Ir.Gt -> 16 | Ir.Ge -> 17

(* What lowering produces before a VM is chosen: everything but the code's
   address and its profile's site ids.  The icache address of stream slot
   [pc] is the code's base address plus [bytes_per_instr] times the number
   of non-ENTER slots before it (ENTER ops are never icache-touched, and
   their slots read 0).  [sites] lists the [extra] slots that take an
   interned call-site id, each followed by the site's callee, in stream
   order. *)
type template = {
  t_opc : int array;
  t_args : int array;
  t_bytes_per_instr : int;
  t_extra : int array;   (* call-site slots hold 0 until instantiated *)
  t_sites : int array;   (* extra slot, callee, extra slot, callee, ... *)
  t_owner : Ir.mid;
  t_nregs : int;
  t_spill : int;
}

let template ~(plat : Platform.t) ~owner ~quality ~bytes_per_instr ~spill (m : Ir.methd) =
  let blocks = m.Ir.blocks in
  let nblocks = Array.length blocks in
  let nregs = m.Ir.nregs in
  let bad what = invalid_arg (Printf.sprintf "Lower.lower: %s in %s" what m.Ir.mname) in
  let reg r = if r < 0 || r >= nregs then bad "register out of range"; r in
  let field v = if v < 0 || v > field_mask then bad "operand field out of range"; v in
  (* Flat pc of each block's ENTER, plus stream, extra-pool and call-site
     counts. *)
  let starts = Array.make (max 1 nblocks) 0 in
  let len = ref 0 and nextra = ref 0 and ncalls = ref 0 in
  for bi = 0 to nblocks - 1 do
    starts.(bi) <- !len;
    let instrs = blocks.(bi).Ir.instrs in
    len := !len + Array.length instrs + 2;
    Array.iter
      (function
        | Ir.Call (_, _, args) ->
          incr ncalls;
          nextra := !nextra + 2 + Array.length args
        | Ir.CallVirt (_, _, _, args) -> nextra := !nextra + 2 + Array.length args
        | Ir.Const _ -> incr nextra
        | _ -> ())
      instrs
  done;
  let n = !len in
  let opc = Array.make n 0
  and args = Array.make n 0
  and extra = Array.make (max 1 !nextra) 0
  and sites = Array.make (2 * !ncalls) 0 in
  let target l = if l < 0 || l >= nblocks then bad "block target out of range"; starts.(l) in
  let pc = ref 0 and eoff = ref 0 and nsites = ref 0 in
  let emit op x y z cost =
    opc.(!pc) <- op lor (cost lsl 8);
    args.(!pc) <- field x lor (field y lsl field_bits) lor (field z lsl (2 * field_bits));
    incr pc
  in
  let spill_args call_args =
    let o = !eoff in
    extra.(o + 1) <- Array.length call_args;
    Array.iteri (fun j r -> extra.(o + 2 + j) <- reg r) call_args;
    eoff := o + 2 + Array.length call_args;
    o
  in
  for bi = 0 to nblocks - 1 do
    let blk = blocks.(bi) in
    assert (!pc = starts.(bi));
    opc.(!pc) <- op_enter;
    incr pc;
    Array.iter
      (fun i ->
        let cost = quality * Platform.instr_cost plat i in
        match i with
        | Ir.Const (d, v) ->
          let o = !eoff in
          extra.(o) <- v;
          eoff := o + 1;
          emit op_const (reg d) o 0 cost
        | Ir.Move (d, s) -> emit op_move (reg d) (reg s) 0 cost
        | Ir.Binop (op, d, a, b) -> emit (binop_code op) (reg d) (reg a) (reg b) cost
        | Ir.Cmp (op, d, a, b) -> emit (cmpop_code op) (reg d) (reg a) (reg b) cost
        | Ir.Load (d, o, off) -> emit op_load (reg d) (reg o) off cost
        | Ir.Store (o, off, s) -> emit op_store (reg o) off (reg s) cost
        | Ir.LoadIdx (d, o, idx) -> emit op_loadidx (reg d) (reg o) (reg idx) cost
        | Ir.StoreIdx (o, idx, s) -> emit op_storeidx (reg o) (reg idx) (reg s) cost
        | Ir.ClassOf (d, o) -> emit op_classof (reg d) (reg o) 0 cost
        | Ir.Alloc (d, kid, slots) -> emit op_alloc (reg d) kid slots cost
        | Ir.Print r -> emit op_print (reg r) 0 0 cost
        | Ir.Call (d, callee, call_args) ->
          let o = spill_args call_args in
          sites.(2 * !nsites) <- o;
          sites.((2 * !nsites) + 1) <- callee;
          incr nsites;
          emit op_call (reg d) callee o cost
        | Ir.CallVirt (d, slot, recv, call_args) ->
          let o = spill_args call_args in
          extra.(o) <- reg recv;
          emit op_callvirt (reg d) slot o cost)
      blk.Ir.instrs;
    let tcost = quality * Platform.term_cost plat blk.Ir.term in
    (match blk.Ir.term with
    | Ir.Jump l -> emit op_jump (target l) 0 0 tcost
    | Ir.Branch (c, t, f) -> emit op_branch (reg c) (target t) (target f) tcost
    | Ir.Ret r -> emit op_ret (reg r) 0 0 tcost)
  done;
  assert (!pc = n);
  {
    t_opc = opc;
    t_args = args;
    t_bytes_per_instr = bytes_per_instr;
    t_extra = extra;
    t_sites = sites;
    t_owner = owner;
    t_nregs = nregs;
    t_spill = spill;
  }

(* Relocation: absolute icache addresses, plus [extra] with its call-site
   slots set to ids interned into this VM's profile in stream order.  [ioff] mirrors
   the tree-walker's instruction-index offsets exactly: instruction k of
   block bi sits at block_offsets.(bi) + k and the terminator at
   block_offsets.(bi) + n, where consecutive blocks are n + 1 indices apart
   (ENTER ops occupy no icache index).  [opc] and [args] are read-only after
   lowering, so every instance shares the template's. *)
let relocate t ~extra ~profile ~addr =
  let opc = t.t_opc and bpi = t.t_bytes_per_instr in
  let iaddrs = Array.make (Array.length opc) 0 in
  let ioff = ref 0 in
  Array.iteri
    (fun pc op ->
      if op land 0xff <> op_enter then begin
        iaddrs.(pc) <- addr + (!ioff * bpi);
        incr ioff
      end)
    opc;
  let sites = t.t_sites in
  for k = 0 to (Array.length sites / 2) - 1 do
    extra.(sites.(2 * k)) <-
      Profile.intern profile ~site_owner:t.t_owner ~callee:sites.((2 * k) + 1)
  done;
  { opc; args = t.t_args; iaddrs; extra; nregs = t.t_nregs; spill = t.t_spill }

(* A shared template gives each instance its own [extra]. *)
let instantiate t ~profile ~addr = relocate t ~extra:(Array.copy t.t_extra) ~profile ~addr

(* A template used once can hand over its own. *)
let lower ~plat ~profile ~owner ~quality ~addr ~bytes_per_instr ~spill m =
  let t = template ~plat ~owner ~quality ~bytes_per_instr ~spill m in
  relocate t ~extra:t.t_extra ~profile ~addr
