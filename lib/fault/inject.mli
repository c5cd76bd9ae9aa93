(** Deterministic runtime fault injection (the chaos engine).

    The offline fault layer ({!Defect}, {!Atpg}, {!Repair}) models a
    fabric that was broken at manufacture; this module breaks it {e while
    the runtime is serving}: pool tasks raise or stall, worker domains
    die mid-task, compiled-cache entries rot, programmed crosspoints flip
    to stuck states and polarity-gate charge drifts off its level — the
    failure modes the paper's programming protocol (Figs. 3–4) exists to
    survive.

    Sites in the runtime call {!tap} (or a convenience wrapper) at each
    hook point. With no engine armed every call is a single atomic load
    and a branch — the production no-op. When armed, the decision at a
    site is a {e pure function} of [(seed, site, index)]: a SplitMix
    stream keyed by hashing the coordinates, never shared mutable state,
    so the set of injected faults is identical no matter how pool
    domains interleave and a seeded chaos run is exactly reproducible
    (its [Runtime.Chaos.deterministic_json] view, at any job count).

    Only one engine can be armed at a time (they are process-global, like
    {!Obs.Trace} collectors). Arming is not nestable. *)

exception Injected_fault of { site : string; index : int }
(** The exception delivered by [Raise] and [Crash_worker] decisions.
    [site]/[index] name the decision coordinates so a failure is
    attributable to the plan, not to real code. *)

(** Where a fault can strike. The [index] (or key) is the deterministic
    coordinate of the decision. *)
type site =
  | Pool_task of { index : int }  (** a submitted task, keyed by submission number *)
  | Cache_store of { key : string }  (** a compiled entry at insert time *)
  | Crosspoint of { index : int }  (** programmed array cell, keyed by round *)
  | Pg_charge of { index : int }  (** polarity-gate storage node, keyed by round *)
  | Weight_cell of { index : int }
      (** classifier weight conductance, keyed by (class, feature) cell *)
  | Read_port of { index : int }  (** analog column read, keyed by (sample, class) *)
  | Adc_sample of { index : int }  (** ADC conversion of a column read *)

(** What the site should do. *)
type action =
  | No_fault
  | Raise of exn  (** task fails alone with {!Injected_fault} *)
  | Crash_worker of exn  (** task fails {e and} the worker domain dies *)
  | Stall of float  (** artificial delay, seconds *)
  | Corrupt  (** site-specific silent data corruption *)

(** Per-site fault probabilities, all in [0, 1]. [nothing] disables
    everything; start from it and override. *)
type plan = {
  task_raise : float;  (** pool task raises {!Injected_fault} *)
  task_stall : float;  (** pool task stalls for [stall_s] first *)
  stall_s : float;
  worker_crash : float;  (** task poisons its whole worker domain *)
  cache_corrupt : float;  (** compiled entry bit-flipped at store time *)
  crosspoint_flip : float;  (** programmed cell goes stuck mid-run *)
  crosspoint_closed_share : float;  (** fraction of flips that are stuck-closed *)
  pg_drift : float;  (** stored PG charge drifts off its level *)
  pg_drift_v : float;  (** drift magnitude, volts *)
  weight_sigma : float;
      (** D2D variation: each classifier weight cell's effective
          conductance is scaled once by [1 + sigma·g], [g] ≈ N(0,1) drawn
          from the cell's own (seed, site, index) stream — fixed for the
          device's lifetime, so it perturbs every read identically. 0
          disables. Must be ≥ 0 (not a probability). *)
  read_noise_lsb : int;
      (** per-read noise: every column read is offset by a uniform draw
          in [-lsb, +lsb], keyed by the read's (sample, class) index. 0
          disables. *)
  adc_bits : int;
      (** ADC width: accumulated scores are clamped to the signed
          [adc_bits] window [-2^(b-1), 2^(b-1)-1]. 0 means an ideal
          (unclamped) converter. *)
}

val nothing : plan

val default : plan
(** A moderately hostile plan used by [cnfet_tool chaos]: a few percent
    of tasks raise/stall, rare worker crashes, frequent cache corruption
    and crosspoint/PG faults. *)

type t
(** An armed engine: the seed, the plan and the per-category counters. *)

val make : seed:int -> plan -> t
(** Validate the plan and build an engine {e without} installing it
    process-wide. An explicit engine feeds the [_of] decision helpers
    below, so many independently-seeded engines can run concurrently
    (one per envelope grid point) while the global slot stays free.
    Raises [Invalid_argument] on an out-of-range plan field. *)

val arm : seed:int -> plan -> t
(** Install the engine process-wide. Raises [Invalid_argument] if one is
    already armed or a probability is out of range. *)

val disarm : unit -> unit
(** Remove the armed engine (idempotent). *)

val armed : unit -> bool

val with_armed : seed:int -> plan -> (t -> 'a) -> 'a
(** [arm], run, [disarm] even on exceptions. *)

val tap : site -> action
(** The hook the runtime calls. [No_fault] when disarmed. Decisions are
    counted on the armed engine by category. *)

val counts : t -> (string * int) list
(** Injected-fault counts by category ([task_raise], [task_stall],
    [worker_crash], [cache_corrupt], [crosspoint_flip], [pg_drift],
    [weight_perturb], [read_noise], [adc_clamp]), name-sorted, zero
    entries included. *)

val total : t -> int
(** Sum of all categories. *)

(** {2 Derived site decisions}

    Convenience wrappers for orchestrators that own the mutation (the
    chaos loop flips the crosspoint itself; the engine only decides). *)

val crosspoint_fault : index:int -> Defect.kind
(** [Good] unless the armed plan fires, else [Stuck_open]/[Stuck_closed]
    split by [crosspoint_closed_share]. *)

val crosspoint_fault_of : t -> index:int -> Defect.kind
(** {!crosspoint_fault} on an explicit engine from {!make}. Because each
    cell's decision is one uniform draw from its own (seed, site, index)
    stream compared against [crosspoint_flip], raising the rate on the
    same seed only {e adds} defective cells — defect sets are nested
    across rates, which is what makes envelope degradation curves
    monotone by construction. *)

val pg_drift : index:int -> float
(** 0 unless the armed plan fires, else ±[pg_drift_v] (sign from the
    decision stream). *)

(** {2 Classification non-idealities}

    The analog corruption model for the crossbar classifier (ported from
    the snn-soc FPGA plan: σ-percent D2D weight perturbation, ±LSB read
    noise, clamped ADC). Each comes in two forms: a global-engine form
    that is a single atomic load and a branch when disarmed — the
    production no-op, same discipline as {!tap} — and an [_of] form
    taking an explicit engine from {!make}, used when many engines with
    different plans run concurrently. Every draw is a pure function of
    (seed, site, index). *)

val weight_factor_of : t -> index:int -> float
(** Lifetime conductance scale for weight cell [index]: [1 + sigma·g]
    with [g] ≈ N(0,1) from the cell's stream; exactly 1.0 when
    [weight_sigma] is 0. Tallies [weight_perturb] on a non-unit draw. *)

val weight_factor : index:int -> float
(** Global-engine {!weight_factor_of}; 1.0 when disarmed. *)

val read_offset_of : t -> index:int -> int
(** Additive read noise for read [index]: uniform in
    [[-read_noise_lsb, +read_noise_lsb]]; 0 when the plan's LSB is 0.
    Tallies [read_noise] on a non-zero draw. *)

val read_offset : index:int -> int
(** Global-engine {!read_offset_of}; 0 when disarmed. *)

val adc_clamp_of : t -> int -> int
(** Clamp a score to the signed [adc_bits] window
    [[-2^(b-1), 2^(b-1)-1]]; identity when [adc_bits] is 0. Tallies
    [adc_clamp] when the value actually clips. *)

val adc_clamp : int -> int
(** Global-engine {!adc_clamp_of}; identity when disarmed. *)
