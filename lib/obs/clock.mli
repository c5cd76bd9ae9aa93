(** Injectable time sources for tracing.

    A clock returns nanoseconds as [int64]. Spans record one reading at
    entry and one at exit; the only contract is that readings taken by
    one domain never decrease. *)

type t = unit -> int64

val monotonic : t
(** The operating system's monotonic clock, in nanoseconds from an
    arbitrary origin: it never decreases and wall-clock steps do not
    move it, so differences of two readings are elapsed time. Shared by
    all callers. *)

val fixed_step : ?start_ns:int64 -> ?step_ns:int64 -> unit -> t
(** Deterministic test double: successive calls return [start_ns],
    [start_ns + step_ns], ... (defaults 0 and 1000). Each call to
    [fixed_step] makes an independent sequence; traces taken against it
    are byte-for-byte reproducible. *)
