open Inltune_jir

(** Compile-once lowering of a method to a flat int-coded instruction
    stream: blocks flattened behind synthetic ENTER ops, branch targets
    resolved to flat pcs, per-instruction simulated cost and icache address
    precomputed, static call sites interned to dense {!Profile} site ids,
    and call argument lists packed into an [extra] pool.  See the
    implementation header for the opcode encoding. *)

type code = {
  opc : int array;
      (** opcode in the low 8 bits, precomputed quality * platform cost
          above them *)
  args : int array;
      (** operands packed x | y << 21 | z << 42 (21-bit fields; [lower]
          rejects anything wider) *)
  iaddrs : int array;  (** icache address, precomputed *)
  extra : int array;
      (** call operand pool ([site id|recv; nargs; args...]) and constant
          pool (const's y field indexes its full-width value here) *)
  nregs : int;
  spill : int;         (** per-executed-block spill cost *)
}

(** Placeholder for unused frame-pool slots; never executed. *)
val dummy : code

(** Width of one packed operand field in [args], and its mask. *)

val field_bits : int
val field_mask : int

(** Opcode values; {!Machine}'s dispatch matches on the literals and asserts
    they agree with these. *)

val op_const : int
val op_move : int
val op_binop_base : int
val op_cmp_base : int
val op_load : int
val op_store : int
val op_loadidx : int
val op_storeidx : int
val op_classof : int
val op_alloc : int
val op_print : int
val op_last_plain : int
val op_call : int
val op_callvirt : int
val op_enter : int
val op_jump : int
val op_branch : int
val op_ret : int

(** A lowered method before it is placed in a VM: the stream, its icache
    offsets from the code's base address, and its call-site slots, not yet
    interned.  Independent of any VM and never mutated, so one template may
    be instantiated by any number of VMs on any domain. *)
type template

(** [template ~plat ~owner ~quality ~bytes_per_instr ~spill m] flattens [m]
    (the code a tier is about to install).  [owner] is the method id call
    sites are attributed to; [quality], [bytes_per_instr] and [spill] come
    from the tier's {!Compile.compiled} record.  Validates registers, block
    targets and operand widths, which licenses the interpreter's unsafe
    array accesses; raises [Invalid_argument] on malformed code. *)
val template :
  plat:Platform.t ->
  owner:int ->
  quality:int ->
  bytes_per_instr:int ->
  spill:int ->
  Ir.methd ->
  template

(** [instantiate t ~profile ~addr] places [t] at code address [addr]:
    absolute icache addresses, and a private [extra] pool whose call sites
    are interned into [profile] in stream order (raising [Invalid_argument]
    on a callee id outside the profile's program).  Shares [t]'s [opc] and
    [args].  Equal, field for field, to lowering the method afresh at
    [addr] against the same profile state. *)
val instantiate : template -> profile:Profile.t -> addr:int -> code

(** [lower ~plat ~profile ~owner ~quality ~addr ~bytes_per_instr ~spill m]
    is {!template} then {!instantiate}. *)
val lower :
  plat:Platform.t ->
  profile:Profile.t ->
  owner:int ->
  quality:int ->
  addr:int ->
  bytes_per_instr:int ->
  spill:int ->
  Ir.methd ->
  code
