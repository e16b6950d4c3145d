(** Search checkpoint files: append-only JSONL, one complete snapshot per
    line, for every genome representation the evolution engine runs.

    Each snapshot carries everything needed to continue a search
    bit-identically: population, raw RNG state, fitness memo cache,
    quarantine set, generation history, and counters, plus a
    [pop_size]/[seed] echo of the run that wrote it.  Genomes travel through
    a {!codec}; everything else is shared.  Floats round-trip exactly
    ("%.17g"); the RNG state travels as a decimal string (JSON numbers are
    doubles and would round an int64).  {!load} returns the last line that
    parses, so a run killed mid-append resumes from the previous complete
    generation.  Writes bump the ["ckpt.writes"] counter and emit a
    ["ckpt.write"] trace event carrying the codec's [kind]. *)

module Json = Inltune_obs.Json

(** One generation of history. *)
type progress = {
  generation : int;
  best_fitness : float;
  mean_fitness : float;
  evaluations : int;  (** cumulative distinct evaluations so far *)
}

type 'g snapshot = {
  s_gen : int;                     (** last completed generation *)
  s_rng : int64;                   (** raw RNG state after this generation *)
  s_pop : 'g array;
  s_best : 'g option;
  s_best_fitness : float;
  s_cache : (string * float) list; (** genome key -> fitness, sorted by key *)
  s_quarantine : string list;      (** genome keys, sorted *)
  s_history : progress list;       (** oldest first *)
  s_evaluations : int;
  s_cache_hits : int;
  s_failures : int;
  s_retries : int;
}

(** The run parameters a snapshot was written under; resuming with
    different ones would not continue the same search. *)
type echo = { pop_size : int; seed : int }

(** How one genome kind is written and read back. *)
type 'g codec = {
  kind : string;                          (** ["ga"], ["gp"]: named in errors and events *)
  encode : 'g -> Json.t;
  decode : Json.t -> ('g, string) result;
  none : Json.t;                          (** what an absent best individual is written as *)
}

(** Integer-vector genomes as JSON int arrays (kind ["ga"]); no best is
    written as [[]]. *)
val ints : int array codec

(** Expression-tree genomes as their canonical text (kind ["gp"]); no best
    is written as [""]. *)
val trees : to_text:('g -> string) -> of_text:(string -> ('g, string) result) -> 'g codec

(** Serialize one snapshot (exposed for tests). *)
val to_line : 'g codec -> echo -> 'g snapshot -> string

(** Parse one snapshot line.  A line whose genomes belong to another codec
    fails with an error naming both kinds. *)
val of_line : 'g codec -> string -> ('g snapshot * echo, string) result

(** Append one snapshot line (creating the file if needed). *)
val write : 'g codec -> path:string -> echo -> 'g snapshot -> unit

(** Load the most recent complete snapshot, skipping truncated/garbled
    lines.  [Error] when the file is missing, holds no valid record, or its
    last record's genomes do not decode with [codec]. *)
val load : 'g codec -> path:string -> ('g snapshot * echo, string) result
