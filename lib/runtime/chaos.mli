(** The closed self-healing loop: inject → detect → repair → re-verify.

    Arms {!Fault.Inject} and drives the whole serving stack through it in
    rounds, exercising every recovery mechanism the runtime owns:

    {ul
    {- {b batches}: input-space sweeps through the pool while tasks
       raise, stall and crash their workers and compiled-cache entries
       rot. Each evaluation goes through {!Cache.evaluator}, the failure
       policy the serve daemon runs; a failed task is resubmitted up to a
       fixed attempt count. Results must stay bit-identical to the
       fault-free oracle (crashes are respawned, failures retried,
       corrupt entries checksum-detected and recompiled or served
       uncompiled);}
    {- {b crosspoint faults}: programmed cells flip to stuck states and
       {!recover} detects them with {!Fault.Atpg} vectors, re-maps
       products onto spare rows ({!Fault.Repair}) and re-verifies
       through the defects; small repaired arrays are then physically
       reprogrammed through {!Cnfet.Program_hw};}
    {- {b PG charge drift}: storage nodes of a live programmed array
       drift ({!Cnfet.Program_hw.disturb}), readback catches the decode
       flips, the cells are rewritten and verified;}
    {- {b crossbar scrub}: interconnect crosspoints flip against a
       golden snapshot ({!Cnfet.Crossbar.copy}/[equal]); the scrubber
       restores and re-verifies routing.}}

    A run is a fixed number of rounds and reads no clock except to time
    recoveries, so {!deterministic_json} is a function of the seed, the
    plan, the round count and the spare rows alone, at any [jobs]. The
    full report adds the wall time and recovery-latency percentiles. *)

type scenario = {
  sc_name : string;
  sc_rounds : int;
  sc_injected : int;  (** faults this scenario's sites drew *)
  sc_detected : int;
  sc_repaired : int;
  sc_unrepairable : int;  (** repair infeasible within the spare budget *)
  sc_undetected : int;  (** injected but masked (no observable miscompare) *)
}

type report = {
  seed : int;
  wall_s : float;
  rounds : int;
  jobs : int;
  spare_rows : int;
  injected_by_category : (string * int) list;
  injected_total : int;
  scenarios : scenario list;
  miscompares : int;  (** batch results differing from the oracle — must be 0 *)
  worker_crashes : int;
  retries : int;  (** batch tasks resubmitted after a raise or worker crash *)
  cache_corruptions : int;
  fallback_evals : int;  (** batch evaluations served [Uncompiled] *)
  degradation : float;
      (** (retries + fallback evals) / (batch evaluations + batch tasks) *)
  recoveries : int;
  recovery_p50_s : float;
  recovery_p90_s : float;
  recovery_p99_s : float;
  recovery_max_s : float;
}

val max_attempts : int
(** Attempts per batch task before {!run_all_retrying} gives up. *)

val run_all_retrying : Pool.t -> retries:int ref -> (unit -> 'a) array -> 'a array
(** {!Pool.run_all} with a bounded per-index retry, the task policy of
    the batch scenario: every thunk is submitted at once, then each
    failed index is resubmitted alone, in index order, until it succeeds
    or has failed {!max_attempts} times, when its last exception is
    re-raised. Each resubmission increments [retries]. Results are in
    index order. *)

val detected_unrepaired : report -> int
(** Faults that were injected {e and} detected but neither repaired nor
    proven unrepairable within the spare budget — the CI smoke gate
    requires 0. *)

(** One pass of the closed repair loop on a single programmed array —
    the kernel of the crosspoint scenario, exposed so other workloads
    (the classification degradation envelope) drive the {e same}
    detect → repair → re-verify path instead of reimplementing it. *)
type recovery_outcome = {
  rv_status :
    [ `Clean  (** the defect maps carry no defects; nothing to do *)
    | `Undetected  (** defects present but masked on the test set *)
    | `Repaired of Fault.Repair.assignment
      (** spare-row remap found and re-verified through the defects *)
    | `Unrepairable
    | `Reverify_failed  (** remap found but still miscompares through the defects *) ];
  rv_wall_s : float;  (** measured detect + repair + re-verify wall seconds *)
}

val recover :
  ?spare_rows:int ->
  tests:bool array list ->
  and_defects:Fault.Defect.map ->
  or_defects:Fault.Defect.map ->
  Cnfet.Pla.t ->
  recovery_outcome
(** Detection runs [tests] (normally {!Fault.Atpg.generate} vectors) on
    the identity-mapped array through the defects; on a miscompare,
    {!Fault.Repair.repair} searches an assignment over
    [products + spare_rows] physical rows (the defect maps must have
    that geometry), and the repaired array is re-verified exhaustively
    through the defects. The status is deterministic in its arguments;
    [rv_wall_s] is measurement. *)

val run :
  ?seed:int ->
  ?max_rounds:int ->
  ?spare_rows:int ->
  ?jobs:int ->
  ?plan:Fault.Inject.plan ->
  unit ->
  report
(** Run [max_rounds] (default 50) chaos rounds under [plan] (default
    {!Fault.Inject.default}) seeded with [seed] (default 42). Arms
    {!Fault.Inject} for the duration; raises [Invalid_argument] if an
    engine is already armed. A batch task that fails on every one of
    its attempts ends the run with the task's last exception. *)

val deterministic_json : report -> Assess.Json.t
(** The reproducible view: seed, rounds, spare rows, injected faults
    (total and by category), per-scenario tallies,
    {!detected_unrepaired}, miscompares, worker crashes, retries, cache
    corruptions, fallback evals and degradation. Byte-identical at any
    [jobs] for the same seed, plan, rounds and spare rows. *)

val to_json : report -> Assess.Json.t
(** The full report: {!deterministic_json} plus jobs, wall seconds, the
    recovery count and the recovery-latency percentiles. *)

val summary : report -> string
(** Human-readable multi-line rendering. *)
