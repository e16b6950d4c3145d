open Inltune_jir

(* The benchmark registry: the SPECjvm98-like training suite and the
   DaCapo+JBB-like test suite (paper Tables 2 and 3). *)

type benchmark = {
  bname : string;
  bdescription : string;
  generate : ?scale:int -> unit -> Ir.program;
}

let spec =
  [
    { bname = Spec_compress.name; bdescription = Spec_compress.description; generate = Spec_compress.program };
    { bname = Spec_jess.name; bdescription = Spec_jess.description; generate = Spec_jess.program };
    { bname = Spec_db.name; bdescription = Spec_db.description; generate = Spec_db.program };
    { bname = Spec_javac.name; bdescription = Spec_javac.description; generate = Spec_javac.program };
    { bname = Spec_mpegaudio.name; bdescription = Spec_mpegaudio.description; generate = Spec_mpegaudio.program };
    { bname = Spec_raytrace.name; bdescription = Spec_raytrace.description; generate = Spec_raytrace.program };
    { bname = Spec_jack.name; bdescription = Spec_jack.description; generate = Spec_jack.program };
  ]

let dacapo =
  [
    { bname = Dacapo_antlr.name; bdescription = Dacapo_antlr.description; generate = Dacapo_antlr.program };
    { bname = Dacapo_fop.name; bdescription = Dacapo_fop.description; generate = Dacapo_fop.program };
    { bname = Dacapo_jython.name; bdescription = Dacapo_jython.description; generate = Dacapo_jython.program };
    { bname = Dacapo_pmd.name; bdescription = Dacapo_pmd.description; generate = Dacapo_pmd.program };
    { bname = Dacapo_ps.name; bdescription = Dacapo_ps.description; generate = Dacapo_ps.program };
    { bname = Dacapo_ipsixql.name; bdescription = Dacapo_ipsixql.description; generate = Dacapo_ipsixql.program };
    { bname = Dacapo_pseudojbb.name; bdescription = Dacapo_pseudojbb.description; generate = Dacapo_pseudojbb.program };
  ]

let all = spec @ dacapo

let find name =
  match List.find_opt (fun bm -> bm.bname = name) all with
  | Some bm -> bm
  | None -> invalid_arg ("Suites.find: unknown benchmark " ^ name)

let names suite = List.map (fun bm -> bm.bname) suite

(* Generated programs are deterministic, so share them per process: program
   generation is cheap but not free, and tuning asks for the same program
   thousands of times.  Pool domains and serve threads reach these tables
   concurrently, and every per-program cache downstream (Fitcache's
   signature data, the compiled-method cache's digests) assumes one program
   value per benchmark: so generation runs outside the lock and the first
   value stored wins, the way [Measure.run_default] memoizes. *)
let cache_mu = Mutex.create ()
let cache : (string, Ir.program) Hashtbl.t = Hashtbl.create 16

let memo key generate =
  match Mutex.protect cache_mu (fun () -> Hashtbl.find_opt cache key) with
  | Some p -> p
  | None ->
    let p = generate () in
    Validate.check_exn p;
    Mutex.protect cache_mu (fun () ->
        match Hashtbl.find_opt cache key with
        | Some existing -> existing
        | None ->
          Hashtbl.add cache key p;
          p)

let program bm = memo bm.bname (fun () -> bm.generate ())

(* Non-default input sizes (the paper ran SPEC at size 100; smaller scales
   shift total time toward compilation).  Cached per (benchmark, scale). *)
let program_scaled bm ~scale =
  if scale = 100 then program bm
  else memo (Printf.sprintf "%s@%d" bm.bname scale) (fun () -> bm.generate ~scale ())
