(** Small descriptive-statistics helpers for experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val stddev : float list -> float
(** Population standard deviation; 0. for fewer than two samples. *)

val median : float list -> float
(** Median (average of middle two for even length); 0. on the empty list. *)

val min_max : float list -> float * float
(** Smallest and largest sample. Raises [Invalid_argument] on empty input. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method: the
    sample of rank [ceil (p/100 * n)], clamped to [\[1, n\]]; 0. on the
    empty list. *)

val percentile_sorted : float -> float array -> float
(** {!percentile} on an array already sorted ascending, without copying
    or sorting it. *)

val ratio : float -> float -> float
(** [ratio a b] is [a /. b], or 0. when [b = 0.]. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

val summarize : float list -> summary

val pp_summary : Format.formatter -> summary -> unit
