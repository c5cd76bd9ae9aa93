(** Deterministic fan-out/fan-in of evaluation jobs over a {!Pool}.

    Inputs are cut into contiguous chunks (one pool task each) and results
    merged by input index, so parallel output is bit-identical to a
    sequential run. Monte-Carlo fan-out derives one rng per trial by
    splitting the caller's seed rng in trial order — a trial's random
    stream depends only on its index, never on scheduling, so
    [jobs = 1] and [jobs = N] produce the same estimate. *)

exception Item_failed of { index : int; exn : exn }
(** Raised at the fan-in point when an item's function raised. [index] is
    the failing input's index; with several failures the smallest index
    wins (what a sequential run would have hit first). Combined with
    {!Cnfet.Gnor.Floating_output} this pinpoints which vector and output
    failed inside a parallel sweep. *)

val map : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], deterministic. [chunk] is the number of items
    per pool task (default: enough for ~4 chunks per worker). With
    [metrics], counts [batch.jobs], [batch.items] and [batch.chunks]. *)

val mapi : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> (int -> 'a -> 'b) -> 'a array -> 'b array

(** {2 Input-vector sweeps}

    All sweeps enumerate minterms [0 .. 2^n_in - 1] in order (bit [i] of
    the minterm is input [i]), capped at 24 inputs. *)

val minterm : int -> int -> bool array
(** [minterm n_in m] is the input assignment for minterm [m]. *)

val sweep : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> n_in:int -> (bool array -> 'b) -> 'b array

val sweep_pla : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Cnfet.Pla.t -> bool array array
(** Functional truth-table sweep. *)

val sweep_compiled : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Cache.compiled -> bool array array
(** Same through a {!Cache}-compiled evaluator, blocked: minterms are
    packed 63 per word ({!Cache.eval_block}, the last block partial)
    with one pool item per block, so [chunk] counts blocks.
    Bit-identical to {!sweep_pla}. *)

val eval_batch : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Cache.compiled -> bool array array -> bool array array
(** Evaluate an arbitrary batch of input vectors through the bit-sliced
    compiled path: 63-vector blocks, the last one partial, are
    transposed and fanned out across the pool (one block per item;
    [chunk] counts blocks). Results are in input order, bit-identical to
    mapping {!Cnfet.Pla.eval} over the batch. *)

val sweep_pla_hw : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Cnfet.Pla.t -> bool array array
(** Switch-level sweep: builds the netlist once, simulates every vector
    (each worker gets its own simulator state over the shared, read-only
    netlist). *)

val sweep_cascade : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Cnfet.Cascade.t -> bool array array

val sweep_wpla : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Cnfet.Wpla.t -> bool array array

(** {2 Monte-Carlo fan-out} *)

val split_rngs : Util.Rng.t -> int -> Util.Rng.t array
(** [n] independent rngs split off the seed rng in index order. *)

val monte_carlo : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Util.Rng.t -> trials:int -> (Util.Rng.t -> 'a) -> 'a array
(** Run [trials] independent trials, one split rng each; results in trial
    order. *)

val yield_estimate : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Util.Rng.t -> ?trials:int -> ?spare_rows:int -> ?closed_share:float -> Cnfet.Pla.t -> defect_rate:float -> Fault.Yield.point
(** Parallel {!Fault.Yield.estimate} over split rngs (defaults: 200
    trials, 2 spare rows). Deterministic in the seed rng's state. *)

val yield_sweep : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Util.Rng.t -> ?trials:int -> ?spare_rows:int -> ?closed_share:float -> Cnfet.Pla.t -> rates:float list -> Fault.Yield.point list

val variation_monte_carlo : ?chunk:int -> ?metrics:Metrics.t -> Pool.t -> Util.Rng.t -> ?trials:int -> ?sigma:float -> ?params:Device.Ambipolar.params -> Device.Tech.t -> Cnfet.Area.profile -> Cnfet.Pla_timing.variation
(** Parallel device-variation Monte-Carlo (see
    {!Cnfet.Pla_timing.monte_carlo}). *)
