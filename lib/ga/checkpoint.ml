(* Search checkpoint files: append-only JSONL, one self-contained snapshot per
   generation, shared by every genome representation the engine runs.

   The snapshot carries everything the search needs to continue bit-identically
   from where it stopped: the population, the RNG's raw state (all stochastic
   choices flow through it), the fitness memo cache (so no evaluation is
   repeated), the quarantine set (so known-bad genotypes stay penalized), the
   generation history, and the running counters.  Floats are printed with
   "%.17g" so parsing them back yields the identical bit pattern, and the RNG
   state is carried as a decimal string because JSON numbers are doubles and
   would silently round an int64.

   Only the genomes differ between representations, so they alone go through
   a codec: integer vectors as JSON arrays, expression trees as their
   canonical text (human-inspectable with nothing but `jq`).  The line
   carries no kind field; the two encodings have different JSON shapes, which
   is how a file of the wrong kind is recognized and named.

   Append-only JSONL is deliberate: a run killed mid-write leaves at most one
   truncated final line, and the loader walks backwards to the last line that
   parses — the previous generation's complete snapshot. *)

module Json = Inltune_obs.Json
module Metric = Inltune_obs.Metric
module Trace = Inltune_obs.Trace
module Event = Inltune_obs.Event

let version = 1

type progress = {
  generation : int;
  best_fitness : float;
  mean_fitness : float;
  evaluations : int;  (* cumulative distinct evaluations so far *)
}

type 'g snapshot = {
  s_gen : int;                     (* last completed generation *)
  s_rng : int64;                   (* raw RNG state after this generation *)
  s_pop : 'g array;
  s_best : 'g option;
  s_best_fitness : float;
  s_cache : (string * float) list; (* genome key -> fitness, sorted by key *)
  s_quarantine : string list;      (* genome keys, sorted *)
  s_history : progress list;       (* oldest first *)
  s_evaluations : int;
  s_cache_hits : int;
  s_failures : int;
  s_retries : int;
}

type echo = { pop_size : int; seed : int }

type 'g codec = {
  kind : string;
  encode : 'g -> Json.t;
  decode : Json.t -> ('g, string) result;
  none : Json.t;  (* what an absent best individual is written as *)
}

let ( let* ) = Result.bind

(* Map a fallible conversion over a list, stopping at the first error. *)
let map_result f items =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
      let* y = f x in
      go (y :: acc) rest
  in
  go [] items

let ints =
  {
    kind = "ga";
    encode = (fun g -> Json.List (List.map (fun v -> Json.Num (Float.of_int v)) (Array.to_list g)));
    decode =
      (function
      | Json.List items ->
        map_result
          (fun it -> Option.to_result ~none:"non-integer gene" (Json.to_int it))
          items
        |> Result.map Array.of_list
      | _ -> Error "genome is not an integer array");
    none = Json.List [];
  }

let trees ~to_text ~of_text =
  {
    kind = "gp";
    encode = (fun t -> Json.Str (to_text t));
    decode = (function Json.Str s -> of_text s | _ -> Error "genome is not a tree text");
    none = Json.Str "";
  }

(* The codec kind whose JSON shape a stored genome has, for naming a file of
   the wrong kind. *)
let kind_of_genome = function
  | Json.List _ -> Some ints.kind
  | Json.Str _ -> Some "gp"
  | _ -> None

(* --- writing ------------------------------------------------------------- *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_str buf s =
  Buffer.add_char buf '"';
  escape_into buf s;
  Buffer.add_char buf '"'

(* Exact round-trip: %.17g re-parses to the identical double.  Non-finite
   values are not JSON numbers, so carry them as strings ("inf", "nan"). *)
let add_float buf f =
  if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else add_str buf (if f > 0.0 then "inf" else if f < 0.0 then "-inf" else "nan")

let add_list buf add items =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    items

(* Genome values: strings with this file's escaping, integers bare. *)
let rec add_genome buf = function
  | Json.Str s -> add_str buf s
  | Json.List items ->
    Buffer.add_char buf '[';
    add_list buf add_genome items;
    Buffer.add_char buf ']'
  | j -> Buffer.add_string buf (Json.encode j)

let to_line codec echo s =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"v\":%d,\"gen\":%d,\"rng\":" version s.s_gen);
  add_str buf (Int64.to_string s.s_rng);
  Buffer.add_string buf
    (Printf.sprintf ",\"pop_size\":%d,\"seed\":%d,\"pop\":[" echo.pop_size echo.seed);
  add_list buf (fun buf g -> add_genome buf (codec.encode g)) (Array.to_list s.s_pop);
  Buffer.add_string buf "],\"best\":";
  add_genome buf (match s.s_best with Some g -> codec.encode g | None -> codec.none);
  Buffer.add_string buf ",\"best_fitness\":";
  add_float buf s.s_best_fitness;
  Buffer.add_string buf ",\"cache\":{";
  add_list buf
    (fun buf (k, v) ->
      add_str buf k;
      Buffer.add_char buf ':';
      add_float buf v)
    s.s_cache;
  Buffer.add_string buf "},\"quarantine\":[";
  add_list buf add_str s.s_quarantine;
  Buffer.add_string buf "],\"history\":[";
  add_list buf
    (fun buf e ->
      Buffer.add_string buf (Printf.sprintf "{\"gen\":%d,\"best\":" e.generation);
      add_float buf e.best_fitness;
      Buffer.add_string buf ",\"mean\":";
      add_float buf e.mean_fitness;
      Buffer.add_string buf (Printf.sprintf ",\"evals\":%d}" e.evaluations))
    s.s_history;
  Buffer.add_string buf
    (Printf.sprintf "],\"evaluations\":%d,\"cache_hits\":%d,\"failures\":%d,\"retries\":%d}"
       s.s_evaluations s.s_cache_hits s.s_failures s.s_retries);
  Buffer.contents buf

let write codec ~path echo s =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_line codec echo s);
      output_char oc '\n');
  Metric.incr (Metric.counter "ckpt.writes");
  if Trace.enabled () then
    Trace.emit "ckpt.write"
      ~fields:
        [
          ("kind", Event.Str codec.kind);
          ("gen", Event.Int s.s_gen);
          ("cache", Event.Int (List.length s.s_cache));
        ]

(* --- reading ------------------------------------------------------------- *)

let get_int name j =
  Option.to_result
    ~none:(Printf.sprintf "missing or non-integer %S" name)
    (Option.bind (Json.member name j) Json.to_int)

(* Non-finite values round-trip as strings ("inf", "-inf", "nan"). *)
let float_value what = function
  | Json.Num f -> Ok f
  | Json.Str s ->
    Option.to_result ~none:(Printf.sprintf "bad float string %S in %S" s what)
      (float_of_string_opt s)
  | _ -> Error (Printf.sprintf "non-number %S" what)

let get_float name j =
  match Json.member name j with
  | Some v -> float_value name v
  | None -> Error (Printf.sprintf "missing %S" name)

let get_list name j =
  match Json.member name j with
  | Some (Json.List items) -> Ok items
  | _ -> Error (Printf.sprintf "missing or non-array %S" name)

(* Everything but the genomes, which stay raw JSON until a codec decodes
   them: a line of the wrong kind still parses here, so the loader can tell
   "wrong kind" apart from "truncated". *)
let parse line =
  let* j = Json.parse line in
  let* v = get_int "v" j in
  if v <> version then Error (Printf.sprintf "unsupported checkpoint version %d" v)
  else
    let* s_gen = get_int "gen" j in
    let* rng_s =
      Option.to_result ~none:"missing or non-string \"rng\""
        (Option.bind (Json.member "rng" j) Json.to_string)
    in
    let* s_rng =
      Option.to_result ~none:(Printf.sprintf "bad rng state %S" rng_s) (Int64.of_string_opt rng_s)
    in
    let* pop_size = get_int "pop_size" j in
    let* seed = get_int "seed" j in
    let* pop = get_list "pop" j in
    let* best = Option.to_result ~none:"missing \"best\"" (Json.member "best" j) in
    let* s_best_fitness = get_float "best_fitness" j in
    let* s_cache =
      match Json.member "cache" j with
      | Some (Json.Obj kvs) ->
        map_result
          (fun (k, v) ->
            let* f = float_value k v in
            Ok (k, f))
          kvs
      | _ -> Error "missing or non-object \"cache\""
    in
    let* quarantine = get_list "quarantine" j in
    let* s_quarantine =
      map_result (fun k -> Option.to_result ~none:"non-string quarantine key" (Json.to_string k))
        quarantine
    in
    let* history = get_list "history" j in
    let* s_history =
      map_result
        (fun it ->
          let* generation = get_int "gen" it in
          let* best_fitness = get_float "best" it in
          let* mean_fitness = get_float "mean" it in
          let* evaluations = get_int "evals" it in
          Ok { generation; best_fitness; mean_fitness; evaluations })
        history
    in
    let* s_evaluations = get_int "evaluations" j in
    let* s_cache_hits = get_int "cache_hits" j in
    let* s_failures = get_int "failures" j in
    let* s_retries = get_int "retries" j in
    Ok
      ( {
          s_gen; s_rng; s_pop = Array.of_list pop; s_best = Some best; s_best_fitness;
          s_cache; s_quarantine; s_history; s_evaluations; s_cache_hits; s_failures;
          s_retries;
        },
        { pop_size; seed } )

let decode codec (raw : Json.t snapshot) =
  let genome j =
    match codec.decode j with
    | Ok g -> Ok g
    | Error msg -> (
      match kind_of_genome j with
      | Some k when k <> codec.kind ->
        Error (Printf.sprintf "checkpoint holds %s genomes, this run is %s" k codec.kind)
      | _ -> Error (Printf.sprintf "bad %s genome: %s" codec.kind msg))
  in
  let* pop = map_result genome (Array.to_list raw.s_pop) in
  let* best =
    match raw.s_best with
    | Some j when j <> codec.none -> Result.map Option.some (genome j)
    | _ -> Ok None
  in
  Ok { raw with s_pop = Array.of_list pop; s_best = best }

let of_line codec line =
  let* raw, echo = parse line in
  let* s = decode codec raw in
  Ok (s, echo)

(* Last line that parses wins: a kill mid-append truncates only the final
   line, and every earlier line is a complete snapshot.  A complete line
   whose genomes this codec cannot decode is a real mismatch, not damage, so
   it ends the search with that error. *)
let load codec ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    close_in ic;
    let rec last_valid = function
      | [] -> Error (Printf.sprintf "%s: no complete checkpoint record" path)
      | line :: rest -> (
        if String.trim line = "" then last_valid rest
        else
          match parse line with
          | Error _ -> last_valid rest
          | Ok (raw, echo) -> (
            match decode codec raw with
            | Ok s -> Ok (s, echo)
            | Error msg -> Error (Printf.sprintf "%s: %s" path msg)))
    in
    last_valid !lines
