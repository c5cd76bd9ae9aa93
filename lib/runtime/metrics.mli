(** A lightweight metrics registry: counters, gauges and latency
    histograms, all safe to mutate from any domain.

    Counters are monotone and atomic; gauges hold an instantaneous value
    or a callback evaluated at dump time; histograms are fixed-memory
    {!Histogram.t}s keyed by name. Every find-or-create takes the
    registry lock, so hot paths resolve their handles once and keep
    them. {!dump} renders the whole registry as sorted text, one metric
    per line. *)

type t

val create : unit -> t

val global : t
(** Process-wide registry used by the CLI front ends. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Find-or-create by name. *)

val incr : ?by:int -> counter -> unit

val incr_named : ?by:int -> t -> string -> unit
(** [incr_named t name] bumps the counter [name], creating it on first
    use — convenience for call sites that don't keep the handle. *)

val count : counter -> int

type batch_counters = { jobs : counter; items : counter; chunks : counter }
(** The [batch.jobs], [batch.items] and [batch.chunks] counters that
    {!Batch.map} bumps. *)

val batch_counters : t -> batch_counters
(** The registry's {!batch_counters}, interned on first use and cached,
    so later calls cost one atomic load instead of three name lookups
    under the registry lock. *)

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit

val register_gauge : t -> string -> (unit -> float) -> unit
(** Computed gauge: the callback is evaluated at read/dump time. *)

val read_gauge : gauge -> float

(** {2 Histograms} *)

val histogram : t -> string -> Histogram.t
(** Find-or-create by name. {!Histogram.time} times a thunk into it. *)

val observe : t -> string -> float -> unit
(** Observe into the named histogram (created on first use). *)

val span_observer : t -> name:string -> dur_s:float -> unit
(** Observer for {!Obs.Trace.set_observer}: records each completed span's
    duration (seconds) into the histogram [span.<name>], creating it on
    first use. *)

(** {2 Reporting} *)

val dump : t -> string
(** Text rendering, metrics sorted by name within each kind. *)

val counters : t -> (string * int) list
(** Name-sorted counter values. *)

val gauges : t -> (string * float) list
(** Name-sorted gauge readings (callbacks evaluated now). *)

val histograms : t -> (string * Histogram.summary) list
(** Name-sorted histogram summaries. *)

val reset : t -> unit
(** Zero counters and set gauges, clear histograms. Callback gauges keep
    their callback. *)

val register_library_gauges : t -> unit
(** Register callback gauges exposing the library-wide work counters:
    [sim.phases_total], [sim.sweeps_total], [espresso.minimize_calls],
    [espresso.minimize_iterations] (LAST_GASP rounds accepted by
    [Minimize.minimize_harder]; plain [minimize] runs no loop) and the
    expand and containment work counters. *)
