open Inltune_jir
open Inltune_opt
open Inltune_vm
module Metric = Inltune_obs.Metric
module Json = Inltune_obs.Json

(* Decision-signature fitness cache.

   The GA revisits heuristics constantly, and — the paper's plateau
   observation — many *distinct* 5-parameter genomes induce exactly the same
   inlining decisions on a given program.  Simulating both is pure waste: the
   compiled code, and therefore every cycle count the VM reports, is a
   function of which call sites get expanded, not of the parameter values
   that chose them.  This module computes a cheap semantic key — the
   **decision signature** — for a (program, scenario, platform, heuristic)
   query by running only the inliner's decision procedure, and reuses the
   previously measured [Runner.measurement] whenever the signature matches.

   Soundness is scenario-split:

   - [Opt]: every method is optimized exactly once, on its
     constant-propagated form, with no profile input ([hot_site] and the
     devirt oracle are [None]).  [Inline.plan] over the constprop'd methods
     therefore reproduces the *exact* verdict sequence the real compile
     performs, so the signature is the hash of those plans — two heuristics
     with equal plans compile every method identically and the measurement
     carries over bit-for-bit.  This is the maximal sound merge.

   - [Adapt]/[Ladder]: which sites are decided (and their hot flags) depends
     on the runtime profile, which itself depends on earlier decisions, so a
     static walk cannot enumerate the queries.  Instead the signature
     projects the heuristic onto the program: for every distinct static
     method size [s] it records the three threshold bits
     [s > CALLEE_MAX_SIZE], [s < ALWAYS_INLINE_SIZE] and
     [s <= HOT_CALLEE_MAX_SIZE], plus [MAX_INLINE_DEPTH] clamped to the
     method count (an inline chain holds distinct methods, so no reachable
     depth exceeds it) and [CALLER_MAX_SIZE] verbatim.  Two heuristics with
     equal projections return identical verdicts for *any* reachable query —
     by induction over the decision sequence the whole execution, profile
     included, stays identical.  Weaker merging than the walk, but sound
     under profile feedback.

   Alternative inlining strategies (inline_leaves / inline_hot /
   inline_region) never read the heuristic or the decider, which is what
   keeps both arguments intact when a plan schedules them: a strategy's
   output is a deterministic function of its input, its plan knobs (inside
   the key's plan tag), and — for inline_hot — the profile trajectory, which
   the induction already covers.  When a *static* strategy (one whose
   decisions read only the program and the site record) is the plan's
   leading inliner and the decider-driven inline item is off, the signature
   is that strategy's own exact engine walk, so two strategies with
   different verdict vectors can never share a measurement; every other
   strategy shape falls back conservatively (exact heuristic parameters when
   the heuristic still runs, an opaque constant when it does not).

   The cache is two-tier: a mutex-guarded in-memory table, plus an optional
   append-only JSONL file ([set_file], CLI [--fitness-cache]) that is loaded
   on attach and appended to on every fresh measurement, so warm state
   survives process restarts and composes with GA checkpoint/resume (the
   checkpoint layer memoizes genome fitness above this layer; this layer
   dedups the simulations below it).  Keys are content-addressed — program
   digest × scenario × platform × iterations × signature — so files can be
   shared across runs and machines; a corrupt or truncated line (killed
   mid-append) is skipped with a warning, never an abort. *)

(* --- per-program derived data ------------------------------------------ *)

type pinfo = {
  p_digest : string;            (* hex MD5 of the canonical text form *)
  p_cp : Ir.methd array;        (* constant-propagated methods (Opt walks) *)
  p_index : Engine.index;       (* shapes of the original methods *)
  p_roots : Engine.shape array; (* shapes of the constant-propagated methods *)
  p_sizes : int array;          (* distinct static method sizes, sorted *)
  p_nmethods : int;
}

let build_pinfo prog =
  let cp = Array.map (fun m -> fst (Constprop.run prog m)) prog.Ir.methods in
  let index = Engine.index prog in
  {
    p_digest = Digest.to_hex (Digest.string (Text.to_string prog));
    p_cp = cp;
    p_index = index;
    p_roots = Array.map Engine.shape cp;
    p_sizes =
      Array.to_list index
      |> List.map (fun sh -> sh.Engine.s_size)
      |> List.sort_uniq compare |> Array.of_list;
    p_nmethods = Array.length prog.Ir.methods;
  }

(* Keyed by physical identity: [Suites.program] shares one immutable program
   value per benchmark per process, so a suite's worth of entries covers a
   search.  Bounded so a long-lived daemon that sees many programs keeps a
   fixed footprint; an evicted entry is rebuilt, identically, when its
   program comes back. *)
module Pinfos = Inltune_support.Idmemo.Make (struct
  type t = Ir.program
end)

let pinfo_capacity = 64
let pinfos : pinfo Pinfos.t = Pinfos.create ~capacity:pinfo_capacity

let pinfo_of prog =
  let built = ref false in
  let info =
    Pinfos.find_or_add pinfos prog (fun prog ->
        built := true;
        build_pinfo prog)
  in
  if !built then Metric.set (Metric.counter "fitness.pinfo_entries") (Pinfos.length pinfos);
  info

let program_digest prog = (pinfo_of prog).p_digest

(* --- signatures --------------------------------------------------------- *)

(* The plan with the VM's legacy inline ablation applied — what the
   pipeline actually interprets; every shape question below is asked of
   this. *)
let effective_plan ~inline_enabled plan =
  if inline_enabled then plan else Plan.disable "inline" plan

(* Under [Opt] the inline_hot pass is structurally inapplicable (no profile
   exists), so the plan-shape analysis must not see it. *)
let opt_skip pass = pass = "inline_hot"

let any_enabled_inliner ~skip plan =
  List.exists (fun n -> (not (skip n)) && Plan.has_enabled n plan) Pass.inliner_names

(* Exact walk signature: hash of the concatenated per-method decision-plan
   bit strings of [policy_of] over the constprop'd methods.  The strings
   themselves are the exact verdicts each method's compile will reach, so
   they travel on to the simulation as its compiled-method cache walk. *)
let walk_signature info policy_of =
  let decisions =
    Array.mapi
      (fun mid root -> Engine.walk ~index:info.p_index ~policy:(policy_of info.p_cp.(mid)) root)
      info.p_roots
  in
  let buf = Buffer.create 256 in
  Array.iter
    (fun d ->
      Buffer.add_string buf d;
      Buffer.add_char buf '|')
    decisions;
  ("w:" ^ Digest.to_hex (Digest.string (Buffer.contents buf)), Some decisions)

(* Signatures that are not an exact walk. *)
let opaque sg = (sg, None)

type decider =
  | Heuristic of Heuristic.t
  | Policy of { policy : Profile.t -> Policy.t; digest : string; static : bool }

(* What a static policy is handed for the walk: it promises not to read the
   profile, so an empty one stands in for the VM's live profile. *)
let no_profile = Profile.create 0

(* The heuristic's signature (over the effective plan), plus its
   per-method decision strings when it is an exact walk. *)
let heuristic_signature ~scenario ~plan heuristic prog =
  let heuristic_params () =
    Printf.sprintf "h:%s"
      (String.concat ","
         (Array.to_list (Array.map string_of_int (Heuristic.to_array heuristic))))
  in
  match scenario with
  | Machine.Opt -> (
    if not (any_enabled_inliner ~skip:opt_skip plan) then opaque "off"
    else
      let heuristic_used = Plan.has_enabled "inline" plan in
      let info () = pinfo_of prog in
      match Plan.first_walkable_inliner ~skip:opt_skip plan with
      | Some it when it.Plan.pass = "inline" ->
        (* Exact: the walk replays the decider's verdict sequence.  Strategy
           items scheduled after inline are decider-independent functions of
           its output, so equal walks still imply identical compilation. *)
        walk_signature (info ()) (fun _ -> Policy.of_heuristic heuristic)
      | Some it when not heuristic_used -> (
        (* The leading inliner is a strategy and the decider-driven inline
           item is off: decisions read nothing the heuristic controls, so
           the strategy's own walk is exact — and distinct strategies with
           different verdict vectors hash apart, which keeps their
           measurements apart even before the key's plan tag does. *)
        match Option.bind (Pass.find it.Plan.pass) (fun p -> p.Pass.static_policy) with
        | Some mk -> walk_signature (info ()) (mk (Plan.item_knob it) prog)
        | None -> opaque "n:static" (* non-static strategy: plan tag isolates *))
      | Some _ ->
        (* A strategy leads but the heuristic-driven inline item still runs
           later, on code the walk cannot reconstruct: fall back to the
           exact parameters — still sound (no merging beyond identical
           heuristics under the same plan, which the key's plan tag already
           isolates), just maximally conservative. *)
        opaque (heuristic_params ())
      | None ->
        (* Pre-inline schedule diverges from the single constprop the
           [p_cp] walk assumes: same fallbacks, by heuristic relevance. *)
        opaque (if heuristic_used then heuristic_params () else "n:static"))
  | Machine.Adapt | Machine.Ladder ->
    opaque
    @@
    if not (any_enabled_inliner ~skip:(fun _ -> false) plan) then "off"
    else if not (Plan.has_enabled "inline" plan) then
      (* Only strategy inliners run.  Their decisions read the program, the
         site record, and the profile — never the heuristic — and the
         profile trajectory is deterministic given the plan, so under a
         fixed plan tag every heuristic produces the same execution. *)
      "n:static"
    else begin
      (* Sound projection under profile feedback: threshold bits per distinct
         callee size + clamped depth limit + caller limit.  Strategy items
         stay heuristic-independent, so the induction (equal projections ⇒
         identical decisions ⇒ identical profile ⇒ identical execution)
         carries over unchanged. *)
      let info = pinfo_of prog in
      let buf = Buffer.create 64 in
      Buffer.add_string buf "p:";
      Array.iter
        (fun s ->
          let b = ref 0 in
          if s > heuristic.Heuristic.callee_max_size then b := !b lor 4;
          if s < heuristic.Heuristic.always_inline_size then b := !b lor 2;
          if s <= heuristic.Heuristic.hot_callee_max_size then b := !b lor 1;
          Buffer.add_char buf (Char.chr (Char.code '0' + !b)))
        info.p_sizes;
      Buffer.add_string buf
        (Printf.sprintf "/d%d/c%d"
           (min heuristic.Heuristic.max_inline_depth info.p_nmethods)
           heuristic.Heuristic.caller_max_size);
      Buffer.contents buf
    end

(* First-class policy queries (lib/policy stores, GP trees).  Under [Opt]
   with a walk-compatible plan and a *static* policy — one whose decisions
   read nothing but the program and the site record, never the live profile —
   [Inline.plan_policy] over the constprop'd methods reproduces the exact
   compile-time verdict sequence, the same argument as the heuristic walk.
   The resulting signature lives in the same "w:" namespace as the heuristic
   one, and [Inline.plan] *is* [plan_policy] over [Policy.of_heuristic], so
   a policy whose decisions equal some heuristic's shares that heuristic's
   measurements: cache hits transfer across structurally different policies
   (and across the policy/heuristic divide) whenever the decisions agree.

   Everywhere else — profile-feedback scenarios, non-static policies,
   walk-incompatible plans — the signature falls back to the caller-supplied
   content [digest] of the policy artifact: sound (identical policies replay
   identical decisions), just no cross-policy merging. *)
let signature_walk ~scenario ~decider ~inline_enabled ~plan prog =
  let plan = effective_plan ~inline_enabled plan in
  match decider with
  | Heuristic h -> heuristic_signature ~scenario ~plan h prog
  | Policy p -> (
    let skip = match scenario with Machine.Opt -> opt_skip | _ -> fun _ -> false in
    if not (Plan.has_enabled "inline" plan) then
      (* The policy drives only the inline item; with it off the execution
         is policy-independent — "off" when nothing inlines at all, an
         opaque constant (isolated by the key's plan tag) when strategies
         still run. *)
      opaque (if any_enabled_inliner ~skip plan then "n:static" else "off")
    else
      match scenario with
      | Machine.Opt when p.static && Plan.walk_compatible plan ->
        let policy = p.policy no_profile in
        walk_signature (pinfo_of prog) (fun _ -> policy)
      | Machine.Opt | Machine.Adapt | Machine.Ladder -> opaque ("g:" ^ p.digest))

let signature ~scenario ~decider ~inline_enabled ~plan prog =
  fst (signature_walk ~scenario ~decider ~inline_enabled ~plan prog)

(* Non-default plans change what every compile does, so their measurements
   must never alias the default plan's: the key carries a plan tag — a fixed
   "default" for the default plan, the plan's content digest otherwise. *)
let plan_tag plan = if Plan.is_default plan then "default" else "plan:" ^ Plan.digest plan

(* The full key, and the compiled-method cache walk that a simulation
   started on a miss receives when the signature is exact. *)
let key_walk ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations prog =
  let sg, decisions = signature_walk ~scenario ~decider ~inline_enabled ~plan prog in
  let digest = program_digest prog in
  ( Printf.sprintf "%s/%s/%s/%s/%d/%s" digest (Machine.scenario_name scenario)
      platform.Platform.pname (plan_tag plan) iterations sg,
    Option.map (fun decisions -> { Compile_cache.program = digest; decisions }) decisions )

let key ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations prog =
  fst (key_walk ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations prog)

(* --- the cache proper --------------------------------------------------- *)

(* Counters are re-resolved per use (not captured at module init) so they
   stay attached to the registry across [Metric.reset_all]. *)
let bump name = Metric.incr (Metric.counter name)

let mu = Mutex.create ()
let table : (string, Runner.measurement) Hashtbl.t = Hashtbl.create 256
let file : string option ref = ref None
let on = ref true

(* Multi-tenant attribution (the serve daemon).  The hook names the tenant
   on whose behalf the *current thread* is working; [owners] remembers which
   tenant first paid for each key's simulation, so a hit by a different
   tenant can be counted as cross-tenant amortization.  Entirely inert —
   zero lookups, zero counters — until a hook is installed. *)
let tenant_hook : (unit -> string option) ref = ref (fun () -> None)
let set_tenant_hook f = tenant_hook := f
let owners : (string, string) Hashtbl.t = Hashtbl.create 64

let enabled () = !on
let set_enabled v = on := v

let clear () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset table;
      Hashtbl.reset owners);
  Compile_cache.clear ()

let size () =
  Mutex.lock mu;
  let n = Hashtbl.length table in
  Mutex.unlock mu;
  n

(* --- JSONL persistence -------------------------------------------------- *)

let fields (m : Runner.measurement) =
  [
    ("total_cycles", m.Runner.total_cycles);
    ("running_cycles", m.Runner.running_cycles);
    ("first_exec_cycles", m.Runner.first_exec_cycles);
    ("first_compile_cycles", m.Runner.first_compile_cycles);
    ("opt_compiles", m.Runner.opt_compiles);
    ("baseline_compiles", m.Runner.baseline_compiles);
    ("code_bytes", m.Runner.code_bytes);
    ("icache_misses", m.Runner.icache_misses);
    ("icache_accesses", m.Runner.icache_accesses);
    ("steps", m.Runner.steps);
    ("ret", m.Runner.ret);
    ("out_hash", m.Runner.out_hash);
  ]

let entry_to_line k m =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"key\":\"";
  Buffer.add_string b (String.escaped k);
  Buffer.add_string b "\"";
  (* Fields like out_hash (and ret for some programs) span the full 63-bit
     int range, and the JSON layer stores numbers as floats — so every field
     is encoded as a decimal string to survive the round trip exactly. *)
  List.iter
    (fun (name, v) -> Buffer.add_string b (Printf.sprintf ",\"%s\":\"%d\"" name v))
    (fields m);
  Buffer.add_char b '}';
  Buffer.contents b

let entry_of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> (
    (* String-encoded to dodge float precision loss; see [entry_to_line]. *)
    let int name =
      match Json.member name j with
      | Some (Json.Str s) -> int_of_string_opt s
      | _ -> None
    in
    match
      ( Json.member "key" j,
        int "total_cycles", int "running_cycles", int "first_exec_cycles",
        int "first_compile_cycles", int "opt_compiles", int "baseline_compiles",
        int "code_bytes", int "icache_misses", int "icache_accesses",
        int "steps", int "ret", int "out_hash" )
    with
    | ( Some (Json.Str k),
        Some total_cycles, Some running_cycles, Some first_exec_cycles,
        Some first_compile_cycles, Some opt_compiles, Some baseline_compiles,
        Some code_bytes, Some icache_misses, Some icache_accesses,
        Some steps, Some ret, Some out_hash ) ->
      Ok
        ( k,
          {
            Runner.total_cycles; running_cycles; first_exec_cycles;
            first_compile_cycles; opt_compiles; baseline_compiles; code_bytes;
            icache_misses; icache_accesses; steps; ret; out_hash;
          } )
    | _ -> Error "missing or non-integer field")

let append_entry path k m =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (entry_to_line k m);
  output_char oc '\n';
  close_out oc

let set_file path =
  Mutex.protect mu @@ fun () ->
  file := path;
  match path with
  | Some p when Sys.file_exists p ->
    let ic = open_in p in
    (* Warn once per file, not once per line: a big cache truncated by a
       crashed writer could otherwise spray thousands of identical lines on
       stderr.  The first bad line's position and cause are kept for the
       summary; the count also lands in the "fitness.cache_corrupt"
       counter so the serve daemon's stats expose it without scraping. *)
    let lineno = ref 0 and skipped = ref 0 in
    let first_bad : (int * string) option ref = ref None in
    (try
       while true do
         let line = input_line ic in
         incr lineno;
         if String.trim line <> "" then
           match entry_of_line line with
           | Ok (k, m) -> if not (Hashtbl.mem table k) then Hashtbl.add table k m
           | Error e ->
             incr skipped;
             if !first_bad = None then first_bad := Some (!lineno, e)
       done
     with End_of_file -> ());
    close_in ic;
    if !skipped > 0 then begin
      Metric.add (Metric.counter "fitness.cache_corrupt") !skipped;
      let where, why = match !first_bad with Some (l, e) -> (l, e) | None -> (0, "") in
      Printf.eprintf
        "warning: fitness cache %s: %d corrupt line%s ignored (first at line %d: %s)\n%!"
        p !skipped
        (if !skipped = 1 then "" else "s")
        where why
    end
  | _ -> ()

(* --- lookup ------------------------------------------------------------- *)

let find_measurement k =
  Mutex.lock mu;
  let r = Hashtbl.find_opt table k in
  Mutex.unlock mu;
  r

(* The append runs under [mu], so lines from racing domains never
   interleave; [Mutex.protect] releases the lock if it raises (an unwritable
   path), so a failed append fails this store alone, not every later
   lookup. *)
let store_measurement k m =
  Mutex.protect mu (fun () ->
      if not (Hashtbl.mem table k) then begin
        Hashtbl.add table k m;
        (match !tenant_hook () with
        | Some t when not (Hashtbl.mem owners k) -> Hashtbl.add owners k t
        | _ -> ());
        bump "fitness.unique_plans";
        match !file with Some p -> append_entry p k m | None -> ()
      end)

(* A hit where the key's simulation was paid for by a *different* tenant:
   the cross-tenant amortization the serve daemon exists to create. *)
let count_tenant_hit k =
  match !tenant_hook () with
  | None -> ()
  | Some t ->
    Mutex.lock mu;
    let cross =
      match Hashtbl.find_opt owners k with Some owner -> owner <> t | None -> false
    in
    Mutex.unlock mu;
    if cross then bump "fitness.cross_tenant_hits"

let mem ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations prog =
  !on
  &&
  let k = key ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations prog in
  Mutex.lock mu;
  let r = Hashtbl.mem table k in
  Mutex.unlock mu;
  r

(* Two domains racing on the same fresh key both simulate (the simulation
   runs outside the lock and is deterministic, so both arrive at the same
   measurement); the first store wins and the counters are best-effort. *)
let lookup_or_measure ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations ~program
    simulate =
  if not !on then simulate None
  else
    let k, walk =
      key_walk ~scenario ~platform ~decider ~inline_enabled ~plan ~iterations program
    in
    match find_measurement k with
    | Some m ->
      bump "fitness.sig_hits";
      count_tenant_hit k;
      m
    | None ->
      bump "fitness.sig_misses";
      let m = simulate walk in
      store_measurement k m;
      m
