(** Espresso + cover-kernel microbenchmarks.

    Measures, per MCNC Table-1 profile (synthetic twins of max46, apla and
    t2) and per small generator function: espresso minimize wall-time,
    cover set-operation throughput through the word-parallel packed kernel
    versus the retained byte-per-literal reference ({!Logic.Cube_naive}),
    and compiled-PLA evaluation throughput. Renders to
    [BENCH_espresso.json]. Shared by [cnfet_tool bench-espresso] and the
    [espresso] section of [bench/main.exe]. *)

type report = {
  name : string;
  n_in : int;
  n_out : int;
  cubes_before : int;  (** on-set cubes before minimization *)
  cubes_after : int;  (** cubes in the minimized cover *)
  lits_after : int;  (** literal total of the minimized cover *)
  minimize_s : float;  (** seconds per {!Espresso.Minimize.minimize} call *)
  iterations : int;  (** reduce/expand/irredundant rounds of that call *)
  packed_mops : float;  (** million cover set-ops per second, packed kernel *)
  naive_mops : float;  (** same workload through the naive reference *)
  op_speedup : float;  (** [packed_mops /. naive_mops] *)
  eval_mevals : float;  (** million compiled-PLA evaluations per second, one vector a call *)
  eval_block_mevals : float;  (** same workload through {!Cache.eval_block} *)
  block_speedup : float;  (** [eval_block_mevals /. eval_mevals] *)
  identical : bool;  (** packed and naive checksums agreed *)
  block_identical : bool;  (** blocked eval bit-identical to [Pla.eval] *)
}

val run : ?metrics:Metrics.t -> ?quick:bool -> ?seed:int -> unit -> report list
(** Runs the benchmark set. [quick] (default false) shortens measurement
    windows and skips the generator functions — the CI smoke mode. The
    three Table-1 profiles are always measured. Registers the library
    gauges on [metrics] when given. *)

val hw_crosscheck : unit -> bool
(** Minimizes a 2-bit comparator, programs it onto a PLA and simulates
    the switch-level netlist against the compiled evaluator over all
    minterms; [true] iff every minterm agrees. Exercises the espresso,
    runtime and circuit subsystems, each under its tracing spans. *)

val geomean_speedup : report list -> float
(** Geometric mean of the packed-vs-naive op speedups. *)

val geomean_block_speedup : report list -> float
(** Geometric mean of the blocked-vs-one-vector eval speedups. *)

val profile_name : quick:bool -> string
(** ["espresso-quick"] / ["espresso-full"]: the {!Assess.Run.t} profile
    names this bench emits. *)

val metrics_of_repeats : report list list -> Assess.Run.metric list
(** One metric series per (function, field) pair — sample [i] of every
    series comes from repeat [i], the pairing {!Assess.Ab} leans on —
    plus the two geomean series. Correctness flags ([identical],
    [block_identical]) ride along as 0/1 series. *)

val run_assess :
  ?metrics:Metrics.t ->
  ?quick:bool ->
  ?seed:int ->
  ?repeats:int ->
  unit ->
  report list * Assess.Run.t
(** Runs the bench [repeats] times (default 1) and packages every
    repeat's scalars as an {!Assess.Run.t} metric series. Returns the
    last repeat's reports (the derived [BENCH_espresso.json] view) and
    the run artifact. *)

val to_json : quick:bool -> seed:int -> report list -> string

val write_json : quick:bool -> seed:int -> path:string -> report list -> unit

val pp_report : Format.formatter -> report -> unit
