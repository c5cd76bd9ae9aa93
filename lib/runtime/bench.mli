(** Sequential-vs-parallel evaluation harness.

    Each workload runs its sequential reference, then the same work
    through {!Batch} on a {!Pool}, verifies the results are bit-identical
    and reports both wall times. Used by the [bench-parallel] CLI
    subcommand and the [parallel] section of [bench/main.exe]; results
    render to machine-readable JSON ([BENCH_runtime.json]). *)

type report = {
  name : string;
  items : int;  (** vectors / trials processed per leg *)
  seq_s : float;
  par_s : float;
  speedup : float;  (** [seq_s /. par_s] *)
  identical : bool;  (** parallel output bit-identical to sequential *)
}

val time : (unit -> 'a) -> 'a * float
(** Wall-clock an evaluation. *)

val hw_sweep : ?metrics:Metrics.t -> Pool.t -> report
(** Exhaustive switch-level truth-table sweeps over the MCNC generator
    functions with ≤ 7 inputs. *)

val compiled_sweep : ?metrics:Metrics.t -> cache:Cache.t -> rounds:int -> Pool.t -> report
(** Repeated functional sweeps through cache-compiled evaluators
    ([rounds] requests over the working set; first round misses, the rest
    hit). Also cross-checks compiled output against [Pla.eval]. *)

val yield_mc : ?metrics:Metrics.t -> seed:int -> trials:int -> Pool.t -> report
(** Monte-Carlo functional yield (cmp3, 2% defects, 3 spares) on split
    rngs. *)

val variation_mc : ?metrics:Metrics.t -> seed:int -> trials:int -> Pool.t -> report
(** Device-variation timing Monte-Carlo (max46 profile). *)

val run : ?metrics:Metrics.t -> ?cache:Cache.t -> ?seed:int -> ?trials:int -> jobs:int -> unit -> report list
(** All four workloads on a fresh pool of [jobs] domains. [trials]
    (default 1000) sizes the yield Monte-Carlo; the variation Monte-Carlo
    uses [8 × trials]. Registers library and cache gauges on [metrics]
    when given. *)

val profile_name : string
(** ["parallel"]: the {!Assess.Run.t} profile name this bench emits. *)

val metrics_of_repeats : report list list -> Assess.Run.metric list
(** One metric series per (workload, field) — [seq_s]/[par_s] (lower is
    better), [speedup] and the 0/1 [identical] flag — with sample [i]
    taken from repeat [i]. *)

val run_assess :
  ?metrics:Metrics.t ->
  ?cache:Cache.t ->
  ?seed:int ->
  ?trials:int ->
  ?repeats:int ->
  jobs:int ->
  unit ->
  report list * Assess.Run.t
(** Runs {!run} [repeats] times (default 1) and packages the scalars as
    an {!Assess.Run.t}; returns the last repeat's reports for the
    derived [BENCH_runtime.json] view. *)

val to_json : ?cache:Cache.t -> ?metrics:Metrics.t -> jobs:int -> report list -> string

val write_json : ?cache:Cache.t -> ?metrics:Metrics.t -> jobs:int -> path:string -> report list -> unit

val pp_report : Format.formatter -> report -> unit
