(** Thread-safe, fixed-memory latency histograms with percentile
    queries.

    Samples land in geometric buckets (the DDSketch construction, Masson
    et al., VLDB 2019): bucket [i >= 1] holds the values in
    [(1e-9 * g{^ i-1}, 1e-9 * g{^ i}]] with growth factor [g = 1.02],
    over 1 ns to 10{^ 4} s. That is ~1.5 k int counts, about 12 KB,
    whatever the number of samples. Values at or below 1 ns — zero, and
    the negative durations a stepped clock can produce — share one zero
    bucket.

    Count, sum, mean, min and max are exact. A percentile is the
    nearest-rank sample of {!Util.Stats.percentile}, read off the bucket
    that holds it and clamped to [[min, max]], so:
    - for samples above 1 ns and below 10{^ 4} s it lies within
      {!relative_error} (< 1 %) of the exact nearest-rank value;
    - p0 and p100 (and anything beyond) are exactly the minimum and the
      maximum, and a single sample is returned as itself;
    - in the zero bucket the error is at most 1 ns absolute; above 10{^ 4}
      s the top bucket saturates and only the clamp to the maximum
      applies.

    All operations may be called from any domain. A histogram has 8
    shards, picked by domain id, each with its own lock and its own
    buckets allocated on its first observation: a histogram fed from one
    domain holds one bucket array, one fed from k domains at most
    [min k 8]. Pool workers on different domains therefore observe
    without contending; {!observe} takes its shard's mutex and, after
    the first call, allocates nothing. Reads merge the shards. *)

type t

val create : unit -> t

val relative_error : float
(** [(g - 1) / (g + 1)], about 0.0099: the bound on
    [|percentile - exact| / exact] stated above. *)

val observe : t -> float -> unit

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk, observing its duration in seconds on
    {!Obs.Clock.monotonic}, whether it returns or raises. *)

val merge : t -> t -> t
(** [merge a b] is a fresh histogram holding the samples of both —
    bucket-wise sums, exact count, min and max — as if every sample of
    [a] and of [b] had been observed into one. *)

val count : t -> int

val sum : t -> float

val mean : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100]; see the bound above. 0 when
    empty. *)

val percentiles : t -> float list -> (float * float) list
(** [percentiles t ps] is [(p, percentile)] for each requested rank, all
    read under one lock — the one way every bench and the serve tier
    compute percentile families, so p50/p95/p99 always describe the same
    sample set. *)

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val summarize : t -> summary

val reset : t -> unit

val pp_summary : Format.formatter -> summary -> unit
