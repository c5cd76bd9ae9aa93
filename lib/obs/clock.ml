(* Injectable time sources for the tracing layer.

   A clock is just [unit -> int64] nanoseconds. The real clock reads the
   operating system's monotonic clock (CLOCK_MONOTONIC on Linux, through
   bechamel's [Monotonic_clock] stub): it never goes backwards and no
   wall-clock step (NTP, an operator's [date -s]) moves it, so a
   duration read on it is the time that passed. The trace validator
   relies on per-track monotonicity. The fixed-step double returns a
   deterministic arithmetic sequence, which makes trace output
   byte-for-byte reproducible in tests. *)

type t = unit -> int64

let monotonic () = Monotonic_clock.now ()

let fixed_step ?(start_ns = 0L) ?(step_ns = 1000L) () =
  if Int64.compare step_ns 0L < 0 then invalid_arg "Clock.fixed_step: negative step";
  let state = Atomic.make start_ns in
  let rec tick () =
    let v = Atomic.get state in
    if Atomic.compare_and_set state v (Int64.add v step_ns) then v else tick ()
  in
  tick
