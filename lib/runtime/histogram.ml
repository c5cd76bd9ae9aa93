(* A fixed-memory latency histogram: geometric buckets with growth factor
   [gamma] from [min_value] (1 ns) to [max_value] (10^4 s), one int count
   each, so a long-running daemon's histograms stay the same size however
   many requests it serves. A percentile finds the bucket holding the
   nearest-rank sample (the {!Util.Stats.percentile} convention) and
   answers that bucket's representative, the point whose relative
   distance to both bucket edges is (gamma - 1) / (gamma + 1) — the
   DDSketch construction — clamped to the exact [min, max].

   Thread-safe without a shared hot lock: a histogram is [n_shards]
   shards, each with its own mutex, buckets and exact fields, and a
   domain observes into the shard its id selects, so pool workers on
   different domains do not contend. A shard's buckets are allocated on
   its first observation. Reads lock the shards one at a time and merge
   them into a [frozen] copy. [observe] computes the bucket index before
   it takes the lock and does nothing inside it that can raise or
   allocate (the exact sum/min/max sit in a flat float array), so it
   needs no [Fun.protect]. *)

let gamma = 1.02
let log_gamma = log gamma
let min_value = 1e-9
let max_value = 1e4
let relative_error = (gamma -. 1.0) /. (gamma +. 1.0)

(* Bucket 0 is the zero bucket (everything <= min_value, and NaN);
   bucket i >= 1 holds (min_value * gamma^(i-1), min_value * gamma^i];
   the top bucket also takes everything >= max_value. *)
let n_buckets = 1 + int_of_float (ceil (log (max_value /. min_value) /. log_gamma))

let bucket_of x =
  if not (x > min_value) then 0
  else if x >= max_value then n_buckets - 1
  else max 1 (int_of_float (ceil (log (x /. min_value) /. log_gamma)))

let representative =
  Array.init n_buckets (fun i ->
      if i = 0 then 0.0 else min_value *. (gamma ** float_of_int i) *. 2.0 /. (gamma +. 1.0))

(* Slots of [exact]. *)
let sum_slot = 0
let min_slot = 1
let max_slot = 2

type shard = {
  lock : Mutex.t;
  mutable counts : int array;  (* [no_counts] until the first observation *)
  mutable n : int;
  exact : float array;  (* sum, min, max *)
}

let no_counts = [||]

(* A power of two, so the shard index is a mask of the domain id. *)
let n_shards = 8

type t = shard array

let fresh_exact () = [| 0.0; infinity; neg_infinity |]

let create () =
  Array.init n_shards (fun _ ->
      { lock = Mutex.create (); counts = no_counts; n = 0; exact = fresh_exact () })

let allocate_counts s =
  let counts = Array.make n_buckets 0 in
  Mutex.lock s.lock;
  if s.counts == no_counts then s.counts <- counts;
  Mutex.unlock s.lock

let observe t x =
  let b = bucket_of x in
  let s = t.((Domain.self () :> int) land (n_shards - 1)) in
  if s.counts == no_counts then allocate_counts s;
  Mutex.lock s.lock;
  s.counts.(b) <- s.counts.(b) + 1;
  s.n <- s.n + 1;
  s.exact.(sum_slot) <- s.exact.(sum_slot) +. x;
  if x < s.exact.(min_slot) then s.exact.(min_slot) <- x;
  if x > s.exact.(max_slot) then s.exact.(max_slot) <- x;
  Mutex.unlock s.lock

let observe_since t t0 =
  observe t (Int64.to_float (Int64.sub (Obs.Clock.monotonic ()) t0) *. 1e-9)

let time t f =
  let t0 = Obs.Clock.monotonic () in
  match f () with
  | v ->
    observe_since t t0;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    observe_since t t0;
    Printexc.raise_with_backtrace e bt

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

(* --- reads ------------------------------------------------------------- *)

(* Every shard of one histogram folded together. *)
type frozen = { f_counts : int array; f_n : int; f_sum : float; f_min : float; f_max : float }

let freeze t =
  let counts = Array.make n_buckets 0 in
  let n = ref 0 and sum = ref 0.0 and lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun s ->
      locked s (fun () ->
          if s.n > 0 then begin
            Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) s.counts;
            n := !n + s.n;
            sum := !sum +. s.exact.(sum_slot);
            lo := Float.min !lo s.exact.(min_slot);
            hi := Float.max !hi s.exact.(max_slot)
          end))
    t;
  { f_counts = counts; f_n = !n; f_sum = !sum; f_min = !lo; f_max = !hi }

let merge a b =
  let fa = freeze a and fb = freeze b in
  let t = create () in
  let s = t.(0) in
  s.counts <- Array.map2 ( + ) fa.f_counts fb.f_counts;
  s.n <- fa.f_n + fb.f_n;
  s.exact.(sum_slot) <- fa.f_sum +. fb.f_sum;
  s.exact.(min_slot) <- Float.min fa.f_min fb.f_min;
  s.exact.(max_slot) <- Float.max fa.f_max fb.f_max;
  t

let count t = Array.fold_left (fun acc s -> acc + locked s (fun () -> s.n)) 0 t

let sum t = Array.fold_left (fun acc s -> acc +. locked s (fun () -> s.exact.(sum_slot))) 0.0 t

let frozen_mean f = if f.f_n = 0 then 0.0 else f.f_sum /. float_of_int f.f_n

let mean t = frozen_mean (freeze t)

(* Nearest-rank percentile. Ranks at or beyond either end are the exact
   extremes. *)
let frozen_percentile f p =
  if f.f_n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int f.f_n)) in
    if rank <= 1 then f.f_min
    else if rank >= f.f_n then f.f_max
    else begin
      let b = ref 0 and seen = ref f.f_counts.(0) in
      while !seen < rank do
        incr b;
        seen := !seen + f.f_counts.(!b)
      done;
      Float.min f.f_max (Float.max f.f_min representative.(!b))
    end
  end

let percentile t p = frozen_percentile (freeze t) p

let percentiles t ps =
  let f = freeze t in
  List.map (fun p -> (p, frozen_percentile f p)) ps

type summary = {
  n : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let summarize t =
  let f = freeze t in
  if f.f_n = 0 then { n = 0; mean = 0.0; min = 0.0; max = 0.0; p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      n = f.f_n;
      mean = frozen_mean f;
      min = f.f_min;
      max = f.f_max;
      p50 = frozen_percentile f 50.0;
      p95 = frozen_percentile f 95.0;
      p99 = frozen_percentile f 99.0;
    }

let reset t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Array.fill s.counts 0 (Array.length s.counts) 0;
          s.n <- 0;
          s.exact.(sum_slot) <- 0.0;
          s.exact.(min_slot) <- infinity;
          s.exact.(max_slot) <- neg_infinity))
    t

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%.4g min=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g" s.n s.mean
    s.min s.p50 s.p95 s.p99 s.max
