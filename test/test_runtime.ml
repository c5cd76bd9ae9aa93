(* Tests for the runtime library: pool determinism (parallel results
   bit-identical to sequential), compiled-PLA cache semantics, metrics
   histogram percentiles, and failure propagation through the pool. *)

module Pla = Cnfet.Pla
module Cover = Logic.Cover
module Pool = Runtime.Pool
module Batch = Runtime.Batch
module Cache = Runtime.Cache
module Metrics = Runtime.Metrics
module Histogram = Runtime.Histogram

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-12)

let truth = Alcotest.array (Alcotest.array Alcotest.bool)

(* --- Pool determinism ----------------------------------------------------- *)

let seq_sweep f pla =
  let n = Pla.num_inputs pla in
  Array.init (1 lsl n) (fun m -> f pla (Batch.minterm n m))

let test_sweep_matches_sequential () =
  let pla = Pla.of_minimized (Mcnc.Generators.adder ~bits:2) in
  let reference = seq_sweep Pla.eval pla in
  Pool.with_pool ~jobs:4 (fun pool ->
      checkb "parallel eval sweep = sequential" true
        (Batch.sweep_pla pool pla = reference);
      (* Tiny chunks force many fan-in merges. *)
      checkb "chunk=1 sweep = sequential" true
        (Batch.sweep_pla ~chunk:1 pool pla = reference))

let test_hw_sweep_matches_sequential () =
  let pla = Pla.of_minimized (Mcnc.Generators.majority 3) in
  let hw = Pla.build_hw pla in
  let n = Pla.num_inputs pla in
  let reference = Array.init (1 lsl n) (fun m -> Pla.simulate_hw hw (Batch.minterm n m)) in
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.check truth "switch-level sweep = sequential" reference
        (Batch.sweep_pla_hw pool pla))

let test_jobs_invariance () =
  let pla = Pla.of_minimized (Mcnc.Generators.xor_n 4) in
  let with_jobs jobs = Pool.with_pool ~jobs (fun pool -> Batch.sweep_pla pool pla) in
  Alcotest.check truth "jobs=1 = jobs=4" (with_jobs 1) (with_jobs 4)

let test_monte_carlo_deterministic () =
  (* Same seed, different parallelism: the per-trial rngs depend only on
     the trial index, so the draws must be identical. *)
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        Batch.monte_carlo pool (Util.Rng.create 42) ~trials:97 (fun rng ->
            Util.Rng.int rng 1_000_000))
  in
  checkb "seeded MC identical across jobs" true (run 1 = run 3);
  (* And against a plain sequential fold over the same split discipline. *)
  let rngs = Batch.split_rngs (Util.Rng.create 42) 97 in
  let reference = Array.map (fun rng -> Util.Rng.int rng 1_000_000) rngs in
  checkb "seeded MC = sequential reference" true (run 4 = reference)

let test_yield_estimate_deterministic () =
  let pla = Pla.of_minimized (Mcnc.Generators.xor_n 3) in
  let point jobs =
    Pool.with_pool ~jobs (fun pool ->
        Batch.yield_estimate pool (Util.Rng.create 7) ~trials:60 ~spare_rows:2 pla
          ~defect_rate:0.05)
  in
  let p1 = point 1 and p4 = point 4 in
  checkf "baseline yield" p1.Fault.Yield.yield_baseline p4.Fault.Yield.yield_baseline;
  checkf "remap yield" p1.Fault.Yield.yield_remap p4.Fault.Yield.yield_remap;
  checkf "spares yield" p1.Fault.Yield.yield_spares p4.Fault.Yield.yield_spares;
  (* Sequential reference: fold Yield.trial over the same split rngs. *)
  let rngs = Batch.split_rngs (Util.Rng.create 7) 60 in
  let outcomes =
    Array.map (fun rng -> Fault.Yield.trial rng ~spare_rows:2 pla ~defect_rate:0.05) rngs
  in
  let ref_pt = Fault.Yield.point_of_outcomes ~defect_rate:0.05 outcomes in
  checkf "parallel = sequential trials" ref_pt.Fault.Yield.yield_spares
    p4.Fault.Yield.yield_spares

(* --- Cache ---------------------------------------------------------------- *)

let cmp2 = Mcnc.Generators.comparator ~bits:1
let dec2 = Mcnc.Generators.decoder ~bits:2

let test_cache_hit_miss () =
  let cache = Cache.create () in
  checkf "empty hit rate" 0.0 (Cache.hit_rate cache);
  let c1 = Cache.compile cache cmp2 in
  checki "first compile misses" 1 (Cache.misses cache);
  checki "no hits yet" 0 (Cache.hits cache);
  let _ = Cache.compile cache cmp2 in
  checki "same cover hits" 1 (Cache.hits cache);
  checki "still one miss" 1 (Cache.misses cache);
  (* A structurally equal but distinct Cover value must hit: the key is
     the content digest, not physical identity. *)
  let copy = Cover.make ~n_in:(Cover.num_inputs cmp2) ~n_out:(Cover.num_outputs cmp2) (Cover.cubes cmp2) in
  let _ = Cache.compile cache copy in
  checki "equal content hits" 2 (Cache.hits cache);
  let _ = Cache.compile cache dec2 in
  checki "different cover misses" 2 (Cache.misses cache);
  checki "two entries" 2 (Cache.size cache);
  (* Compiled evaluation agrees with the plain evaluator everywhere. *)
  let pla = Pla.of_cover cmp2 in
  let n = Cover.num_inputs cmp2 in
  for m = 0 to (1 lsl n) - 1 do
    let v = Batch.minterm n m in
    checkb "compiled = Pla.eval" true (Cache.eval c1 v = Pla.eval pla v)
  done

let test_cache_key_distinguishes_polarity () =
  (* Same cubes, different output polarity: must not collide. *)
  let k_plain = Cache.key_of_cover cmp2 in
  let inv = Array.make (Cover.num_outputs cmp2) false in
  inv.(0) <- true;
  let k_inv = Cache.key_of_cover ~inverted_outputs:inv cmp2 in
  checkb "polarity is part of the key" false (k_plain = k_inv);
  let cache = Cache.create () in
  let plain = Cache.compile cache cmp2 in
  let inverted = Cache.compile cache ~inverted_outputs:inv cmp2 in
  checki "distinct entries" 2 (Cache.size cache);
  let n = Cover.num_inputs cmp2 in
  let differs = ref false in
  for m = 0 to (1 lsl n) - 1 do
    let v = Batch.minterm n m in
    if Cache.eval plain v <> Cache.eval inverted v then differs := true
  done;
  checkb "polarity changes behaviour" true !differs

let test_cache_key_sensitive_to_cubes () =
  let a = Mcnc.Generators.xor_n 3 and b = Mcnc.Generators.majority 3 in
  checkb "different covers, different keys" false
    (Cache.key_of_cover a = Cache.key_of_cover b)

let test_cache_lru_eviction () =
  let cache = Cache.create ~capacity:2 () in
  let covers = [| Mcnc.Generators.xor_n 2; Mcnc.Generators.xor_n 3; Mcnc.Generators.xor_n 4 |] in
  Array.iter (fun c -> ignore (Cache.compile cache c)) covers;
  checki "capacity respected" 2 (Cache.size cache);
  checki "one eviction" 1 (Cache.evictions cache);
  (* covers.(0) was least recently used, so it was the victim. *)
  let misses_before = Cache.misses cache in
  ignore (Cache.compile cache covers.(0));
  checki "evicted entry misses again" (misses_before + 1) (Cache.misses cache);
  ignore (Cache.compile cache covers.(2));
  checki "recent entry still hits" 1 (Cache.hits cache)

let test_cache_lru_touch_reorders () =
  (* Capacity-2 regression for the intrusive recency list: a cache hit
     must move the entry to most-recently-used, changing who the next
     eviction victim is. Eviction counts must match the old linear-scan
     implementation exactly. *)
  let cache = Cache.create ~capacity:2 () in
  let a = Mcnc.Generators.xor_n 2
  and b = Mcnc.Generators.xor_n 3
  and c = Mcnc.Generators.xor_n 4 in
  ignore (Cache.compile cache a);
  ignore (Cache.compile cache b);
  checki "no eviction while under capacity" 0 (Cache.evictions cache);
  (* Touch [a]: recency order becomes b < a, so inserting [c] must
     evict [b], not [a]. *)
  let _, hit_a = Cache.compile_hit cache a in
  checkb "touch is a hit" true hit_a;
  ignore (Cache.compile cache c);
  checki "exactly one eviction" 1 (Cache.evictions cache);
  checki "capacity still 2" 2 (Cache.size cache);
  let _, hit_a' = Cache.compile_hit cache a in
  checkb "touched entry survived" true hit_a';
  let misses_before = Cache.misses cache in
  let _, hit_b = Cache.compile_hit cache b in
  checkb "untouched entry was the victim" false hit_b;
  checki "victim recompiles as a miss" (misses_before + 1) (Cache.misses cache);
  (* Recompiling [b] at capacity evicted the tail again. *)
  checki "second eviction on reinsert" 2 (Cache.evictions cache)

let test_compile_of_pla_hit_status () =
  let cache = Cache.create () in
  let pla = Pla.of_cover cmp2 in
  let _, hit1 = Cache.compile_of_pla_hit cache pla in
  checkb "first of-planes compile misses" false hit1;
  (* A structurally identical but physically distinct PLA must hit: the
     key digests plane contents, not identity. *)
  let _, hit2 = Cache.compile_of_pla_hit cache (Pla.of_cover cmp2) in
  checkb "same plane content hits" true hit2;
  let _, hit3 = Cache.compile_of_pla_hit cache (Pla.of_cover dec2) in
  checkb "different plane content misses" false hit3

(* --- the failure policy (Cache.evaluator) ---------------------------------- *)

let check_engine_outputs msg engine cover =
  let pla = Pla.of_cover cover in
  let n = Cover.num_inputs cover in
  for m = 0 to (1 lsl n) - 1 do
    let v = Batch.minterm n m in
    let out =
      match engine with
      | Cache.Compiled compiled -> Cache.eval compiled v
      | Cache.Uncompiled p -> Pla.eval p v
    in
    checkb msg true (out = Pla.eval pla v)
  done

let test_evaluator_recompiles_rot () =
  let cache = Cache.create () in
  Cache.corrupt_for_test (Cache.compile cache cmp2);
  let engine, hit = Cache.evaluator cache cmp2 in
  (match engine with
  | Cache.Compiled _ -> ()
  | Cache.Uncompiled _ -> Alcotest.fail "a rotted entry must be recompiled, not bypassed");
  checkb "the recompile is a miss" false hit;
  checki "the rot was counted once" 1 (Cache.corruptions cache);
  check_engine_outputs "recompiled engine = Pla.eval" engine cmp2;
  let _, hit' = Cache.evaluator cache cmp2 in
  checkb "the recompiled entry now hits" true hit'

let test_evaluator_uncompiled_under_store_rot () =
  Fault.Inject.with_armed ~seed:11 { Fault.Inject.nothing with Fault.Inject.cache_corrupt = 1.0 }
    (fun t ->
      let cache = Cache.create () in
      let engine, hit = Cache.evaluator cache cmp2 in
      (match engine with
      | Cache.Uncompiled _ -> ()
      | Cache.Compiled _ -> Alcotest.fail "every store rots: expected Uncompiled");
      checkb "no hit reported" false hit;
      (* cover key, its one recompile, then the plane-content key *)
      checki "three corruptions" 3 (Cache.corruptions cache);
      checki "three injected store faults" 3
        (List.assoc "cache_corrupt" (Fault.Inject.counts t));
      checki "nothing left cached" 0 (Cache.size cache);
      check_engine_outputs "uncompiled engine = Pla.eval" engine cmp2)

(* --- Bit-sliced (transposed) evaluation ------------------------------------ *)

let random_vectors rng ~n ~width =
  Array.init n (fun _ -> Array.init width (fun _ -> Util.Rng.bool rng))

let test_transpose_roundtrip () =
  let rng = Util.Rng.create 21 in
  List.iter
    (fun (width, lanes) ->
      let vecs = random_vectors rng ~n:(lanes + 2) ~width in
      let block = Cache.transpose vecs ~first:1 ~lanes in
      checki "one word per column" width (Array.length block.Cache.words);
      (* Bits at and above [lanes] must be zero in every word. *)
      Array.iter
        (fun w ->
          checkb "no stray high lanes" true
            (lanes >= Cache.lanes_per_word || w lsr lanes = 0))
        block.Cache.words;
      let back = Cache.untranspose block.Cache.words ~lanes:block.Cache.lanes in
      checkb "untranspose inverts transpose" true
        (back = Array.sub vecs 1 lanes))
    [ (1, 1); (7, 17); (64, 62); (9, 63); (80, 5) ]

let test_transpose_rejects_bad_input () =
  let ragged = [| [| true; false |]; [| true |] |] in
  (match Cache.transpose ragged ~first:0 ~lanes:2 with
  | _ -> Alcotest.fail "expected Invalid_argument on ragged batch"
  | exception Invalid_argument _ -> ());
  let ok = [| [| true |]; [| false |] |] in
  match Cache.transpose ok ~first:1 ~lanes:2 with
  | _ -> Alcotest.fail "expected Invalid_argument on out-of-range slice"
  | exception Invalid_argument _ -> ()

let test_eval_block_matches_scalar () =
  let rng = Util.Rng.create 33 in
  let cache = Cache.create () in
  List.iter
    (fun cover ->
      let compiled = Cache.compile cache cover in
      let pla = Pla.of_cover cover in
      let width = Cover.num_inputs cover in
      List.iter
        (fun lanes ->
          let vecs = random_vectors rng ~n:lanes ~width in
          let block = Cache.transpose vecs ~first:0 ~lanes in
          let words = Cache.eval_block compiled block in
          Array.iter (fun w -> checki "no bits at or above lanes" 0 (w lsr lanes)) words;
          let got = Cache.untranspose words ~lanes in
          let want = Array.map (Pla.eval pla) vecs in
          Alcotest.check truth
            (Printf.sprintf "eval_block = Pla.eval (%d lanes)" lanes)
            want got)
        [ 1; 17; 62; 63 ])
    [ cmp2; Mcnc.Generators.majority 5; Mcnc.Generators.decoder ~bits:3 ]

let test_eval_batch_ragged_tail () =
  let rng = Util.Rng.create 55 in
  let cache = Cache.create () in
  let cover = Mcnc.Generators.adder ~bits:2 in
  let compiled = Cache.compile cache cover in
  let pla = Pla.of_cover cover in
  let width = Cover.num_inputs cover in
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun n ->
          let vecs = random_vectors rng ~n ~width in
          let want = Array.map (Pla.eval pla) vecs in
          Alcotest.check truth
            (Printf.sprintf "eval_batch n=%d" n)
            want
            (Batch.eval_batch pool compiled vecs);
          (* chunk=1 forces one fan-in merge per block. *)
          Alcotest.check truth
            (Printf.sprintf "eval_batch chunk=1 n=%d" n)
            want
            (Batch.eval_batch ~chunk:1 pool compiled vecs))
        [ 0; 1; 62; 63; 64; 127 ])

let test_sweep_compiled_blocked_matches_pla () =
  let cache = Cache.create () in
  List.iter
    (fun cover ->
      let compiled = Cache.compile cache cover in
      let pla = Pla.of_cover cover in
      let reference = seq_sweep Pla.eval pla in
      Pool.with_pool ~jobs:4 (fun pool ->
          Alcotest.check truth "blocked sweep_compiled = sequential" reference
            (Batch.sweep_compiled pool compiled);
          Alcotest.check truth "blocked chunk=1 = sequential" reference
            (Batch.sweep_compiled ~chunk:1 pool compiled)))
    (* 1 input: one 2-lane partial block. 5 inputs: one 32-lane partial
       block. 6 inputs: one full block plus a 1-lane partial block
       (64 = 63 + 1). 7 inputs: two full blocks plus a 2-lane partial
       block (128 = 2*63 + 2). *)
    [
      Mcnc.Generators.xor_n 1;
      Mcnc.Generators.majority 5;
      Mcnc.Generators.xor_n 6;
      Mcnc.Generators.xor_n 7;
    ]

let test_block_corruption_detected () =
  (* Swapping Pass and Invert on one sliced row leaves the polarity
     vector alone, so only the checksum's walk over the row arrays can
     catch it. *)
  let cache = Cache.create () in
  let compiled = Cache.compile cache cmp2 in
  Cache.corrupt_for_test compiled;
  (match Cache.compile cache cmp2 with
  | _ -> Alcotest.fail "expected Corrupt_entry"
  | exception Cache.Corrupt_entry _ -> ());
  checki "corruption counted" 1 (Cache.corruptions cache);
  (* The rotten entry was evicted, so a retry recompiles cleanly. *)
  let fresh = Cache.compile cache cmp2 in
  let pla = Pla.of_cover cmp2 in
  let n = Cover.num_inputs cmp2 in
  for m = 0 to (1 lsl n) - 1 do
    let v = Batch.minterm n m in
    checkb "recompiled entry is sound" true (Cache.eval fresh v = Pla.eval pla v)
  done

(* --- Metrics -------------------------------------------------------------- *)

(* The histogram keeps buckets, not samples, so a percentile matches the
   exact nearest-rank value only within the relative error its interface
   states. *)
let check_within_bound name exact got =
  if Float.abs (got -. exact) > Histogram.relative_error *. Float.abs exact then
    Alcotest.failf "%s: %g is not within %g of %g" name got Histogram.relative_error exact

let test_histogram_percentiles_match_stats () =
  let h = Histogram.create () in
  (* Deterministic but unordered samples. *)
  let rng = Util.Rng.create 11 in
  let samples = List.init 137 (fun _ -> Util.Rng.float rng 100.0) in
  List.iter (Histogram.observe h) samples;
  checki "count" 137 (Histogram.count h);
  List.iter
    (fun p ->
      check_within_bound (Printf.sprintf "p%g" p) (Util.Stats.percentile p samples)
        (Histogram.percentile h p))
    [ 0.0; 25.0; 50.0; 90.0; 95.0; 99.0; 100.0 ];
  let s = Histogram.summarize h in
  check_within_bound "summary p50" (Util.Stats.percentile 50.0 samples) s.Histogram.p50;
  check_within_bound "summary p99" (Util.Stats.percentile 99.0 samples) s.Histogram.p99;
  checkf "p0 exact" (Util.Stats.percentile 0.0 samples) (Histogram.percentile h 0.0);
  checkf "p100 exact" (Util.Stats.percentile 100.0 samples) (Histogram.percentile h 100.0)

let test_histogram_fixed_memory () =
  let h = Histogram.create () in
  let feed from upto =
    for i = from to upto do
      Histogram.observe h (float_of_int (i mod 9973) *. 1e-6)
    done
  in
  feed 1 1_000;
  let words = Obj.reachable_words (Obj.repr h) in
  feed 1_001 1_000_000;
  checki "samples kept" 1_000_000 (Histogram.count h);
  checki "same reachable words after 10^3 and 10^6 samples" words
    (Obj.reachable_words (Obj.repr h))

let test_histogram_across_domains () =
  (* Each domain observes into a shard of its own; reads must see every
     shard, exactly as if one domain had observed everything. *)
  let per_domain = 5_000 in
  let sample d i = float_of_int (((d * 7919) + (i * 104729)) mod 100_003) *. 1e-7 in
  let h = Histogram.create () in
  let domains =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Histogram.observe h (sample d i)
            done))
  in
  Array.iter Domain.join domains;
  let serial = Histogram.create () in
  let all = ref [] in
  for d = 0 to 3 do
    for i = 1 to per_domain do
      Histogram.observe serial (sample d i);
      all := sample d i :: !all
    done
  done;
  checki "every shard counted" (4 * per_domain) (Histogram.count h);
  let ranks = [ 0.0; 1.0; 50.0; 90.0; 99.0; 99.9; 100.0 ] in
  checkb "same percentiles as one domain" true
    (Histogram.percentiles h ranks = Histogram.percentiles serial ranks);
  List.iter
    (fun p ->
      check_within_bound (Printf.sprintf "p%g" p) (Util.Stats.percentile p !all)
        (Histogram.percentile h p))
    ranks

let test_histogram_zero_bucket () =
  (* A stepped clock can hand back negative durations; they share the
     zero bucket with 0 and stay exact at the ends. *)
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ -1e-3; 0.0; 0.0; 5.0 ];
  checkf "p0 is the negative minimum" (-1e-3) (Histogram.percentile h 0.0);
  checkf "p50 in the zero bucket" 0.0 (Histogram.percentile h 50.0);
  checkf "p100 is the maximum" 5.0 (Histogram.percentile h 100.0);
  checkf "sum exact" (5.0 -. 1e-3) (Histogram.sum h)

let test_histogram_time_monotonic () =
  let h = Histogram.create () in
  checki "returns the thunk's value" 7 (Histogram.time h (fun () -> 7));
  (match Histogram.time h (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected the thunk's exception"
  | exception Failure _ -> ());
  checki "observed on return and on raise" 2 (Histogram.count h);
  checkb "durations never negative" true (Histogram.percentile h 0.0 >= 0.0)

let test_metrics_counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "test.count" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  checki "counter" 5 (Metrics.count c);
  let g = Metrics.gauge m "test.gauge" in
  Metrics.set_gauge g 2.5;
  checkf "gauge" 2.5 (Metrics.read_gauge g);
  Metrics.register_gauge m "test.cb" (fun () -> 7.0);
  checkb "callback gauge listed" true (List.mem_assoc "test.cb" (Metrics.gauges m));
  Metrics.observe m "test.lat" 0.5;
  Metrics.observe m "test.lat" 1.5;
  let summaries = Metrics.histograms m in
  let s = List.assoc "test.lat" summaries in
  checki "histogram n" 2 s.Histogram.n;
  checkf "histogram mean" 1.0 s.Histogram.mean;
  Metrics.reset m;
  checki "counter reset" 0 (Metrics.count c);
  checkb "callback survives reset" true (List.mem_assoc "test.cb" (Metrics.gauges m))

let test_pool_records_metrics () =
  let m = Metrics.create () in
  Pool.with_pool ~metrics:m ~jobs:2 (fun pool ->
      ignore (Pool.run_all pool (Array.init 10 (fun i () -> i * i))));
  checki "tasks counted" 10 (List.assoc "pool.tasks" (Metrics.counters m));
  let lat = List.assoc "pool.task_latency_s" (Metrics.histograms m) in
  checki "latency observed per task" 10 lat.Histogram.n

let test_batch_map_counts () =
  (* the cached batch handles count exactly what name lookups did, and
     keep counting after a reset zeroes the registry *)
  let m = Metrics.create () in
  let counts () =
    List.map
      (fun name -> List.assoc_opt name (Metrics.counters m))
      [ "batch.jobs"; "batch.items"; "batch.chunks" ]
  in
  let opt = Alcotest.(list (option int)) in
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check opt "nothing before the first map" [ None; None; None ] (counts ());
      ignore (Batch.map ~metrics:m ~chunk:3 pool succ (Array.init 10 Fun.id));
      ignore (Batch.map ~metrics:m ~chunk:4 pool succ (Array.init 8 Fun.id));
      ignore (Batch.map ~metrics:m pool succ [||]);
      Alcotest.check opt "two jobs, 18 items, 4 + 2 chunks" [ Some 2; Some 18; Some 6 ] (counts ());
      Metrics.reset m;
      ignore (Batch.map ~metrics:m ~chunk:5 pool succ (Array.init 5 Fun.id));
      Alcotest.check opt "handles survive reset" [ Some 1; Some 5; Some 1 ] (counts ()))

let test_histogram_empty () =
  let h = Histogram.create () in
  checki "empty count" 0 (Histogram.count h);
  checkf "empty mean" 0.0 (Histogram.mean h);
  checkf "empty percentile" 0.0 (Histogram.percentile h 50.0);
  let s = Histogram.summarize h in
  checki "summary n" 0 s.Histogram.n;
  checkf "summary mean" 0.0 s.Histogram.mean;
  checkf "summary min" 0.0 s.Histogram.min;
  checkf "summary max" 0.0 s.Histogram.max;
  checkf "summary p50" 0.0 s.Histogram.p50;
  checkf "summary p99" 0.0 s.Histogram.p99

let test_histogram_single_sample () =
  let h = Histogram.create () in
  Histogram.observe h 3.25;
  List.iter
    (fun p ->
      checkf (Printf.sprintf "p%.0f of singleton" p) 3.25 (Histogram.percentile h p))
    [ 0.0; 1.0; 50.0; 99.0; 100.0 ];
  let s = Histogram.summarize h in
  checki "n" 1 s.Histogram.n;
  checkf "min = max = sample" 3.25 s.Histogram.min;
  checkf "max" 3.25 s.Histogram.max

let test_histogram_percentile_clamps () =
  let h = Histogram.create () in
  List.iter (Histogram.observe h) [ 10.0; 20.0; 30.0; 40.0 ];
  (* Out-of-range p clamps to the extreme samples instead of indexing out
     of bounds. *)
  checkf "p=0 is the minimum" 10.0 (Histogram.percentile h 0.0);
  checkf "p<0 is the minimum" 10.0 (Histogram.percentile h (-5.0));
  checkf "p=100 is the maximum" 40.0 (Histogram.percentile h 100.0);
  checkf "p>100 is the maximum" 40.0 (Histogram.percentile h 150.0)

let test_incr_named_across_domains () =
  let m = Metrics.create () in
  let per_domain = 5_000 in
  let worker () =
    for _ = 1 to per_domain do
      Metrics.incr_named m "smoke.hits"
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  checki "4 domains x 5000 increments" (4 * per_domain)
    (List.assoc "smoke.hits" (Metrics.counters m))

let test_span_observer_feeds_histogram () =
  let m = Metrics.create () in
  Metrics.span_observer m ~name:"unit.work" ~dur_s:0.25;
  Metrics.span_observer m ~name:"unit.work" ~dur_s:0.75;
  let s = List.assoc "span.unit.work" (Metrics.histograms m) in
  checki "two spans observed" 2 s.Histogram.n;
  checkf "mean duration" 0.5 s.Histogram.mean

(* --- Failure propagation -------------------------------------------------- *)

exception Boom of int

let test_batch_reports_smallest_failing_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let items = Array.init 64 (fun i -> i) in
      (match
         Batch.map ~chunk:1 pool
           (fun i -> if i = 13 || i = 57 then raise (Boom i) else i)
           items
       with
      | _ -> Alcotest.fail "expected Item_failed"
      | exception Batch.Item_failed { index; exn = Boom b } ->
        checki "smallest failing index" 13 index;
        checki "original exception payload" 13 b
      | exception e -> Alcotest.fail ("unexpected exception: " ^ Printexc.to_string e));
      (* The pool survives a failed batch: later work still runs. *)
      let r = Batch.map pool (fun i -> i + 1) (Array.init 8 (fun i -> i)) in
      checkb "pool usable after failure" true (r = Array.init 8 (fun i -> i + 1)))

let test_await_reraises () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let fut = Pool.submit pool (fun () -> raise (Boom 3)) in
      (match Pool.await fut with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 3 -> ());
      let ok = Pool.submit pool (fun () -> 21 * 2) in
      checki "pool survives a raising task" 42 (Pool.await ok))

let test_submit_after_shutdown_rejected () =
  let pool = Pool.create ~jobs:1 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  match Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_drain_finishes_queued () =
  let pool = Pool.create ~jobs:1 () in
  let counter = Atomic.make 0 in
  let futs =
    List.init 6 (fun _ ->
        Pool.submit pool (fun () ->
            Thread.delay 0.005;
            Atomic.incr counter))
  in
  Pool.drain pool;
  Pool.drain pool (* idempotent *);
  checki "every queued task ran before drain returned" 6 (Atomic.get counter);
  List.iter Pool.await futs

let test_shutdown_poisons_queued () =
  let pool = Pool.create ~jobs:1 () in
  let started = Atomic.make false in
  let gate = Atomic.make false in
  let first =
    Pool.submit pool (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Thread.delay 0.001
        done;
        1)
  in
  while not (Atomic.get started) do
    Thread.delay 0.001
  done;
  (* the only worker is pinned on [first]; these stay queued *)
  let queued = List.init 3 (fun i -> Pool.submit pool (fun () -> i)) in
  let stopper = Thread.create (fun () -> Pool.shutdown pool) () in
  Thread.delay 0.02;
  Atomic.set gate true;
  Thread.join stopper;
  checki "inflight task still finished" 1 (Pool.await first);
  List.iter
    (fun f ->
      match Pool.await f with
      | _ -> Alcotest.fail "queued-unstarted task must fail with Pool.Shutdown"
      | exception Pool.Shutdown -> ())
    queued

let test_concurrent_stoppers () =
  let pool = Pool.create ~jobs:2 () in
  ignore (Pool.submit pool (fun () -> Thread.delay 0.01));
  (* drain and shutdown racing from four threads: all must return, and
     only to a fully-stopped pool *)
  let stoppers =
    List.init 4 (fun i ->
        Thread.create (fun () -> if i mod 2 = 0 then Pool.shutdown pool else Pool.drain pool) ())
  in
  List.iter Thread.join stoppers;
  match Pool.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "runtime"
    [
      ( "pool determinism",
        [
          Alcotest.test_case "PLA sweep = sequential" `Quick test_sweep_matches_sequential;
          Alcotest.test_case "switch-level sweep = sequential" `Quick
            test_hw_sweep_matches_sequential;
          Alcotest.test_case "jobs invariance" `Quick test_jobs_invariance;
          Alcotest.test_case "seeded Monte-Carlo" `Quick test_monte_carlo_deterministic;
          Alcotest.test_case "yield estimate" `Quick test_yield_estimate_deterministic;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "polarity in key" `Quick test_cache_key_distinguishes_polarity;
          Alcotest.test_case "cube content in key" `Quick test_cache_key_sensitive_to_cubes;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "LRU touch reorders recency" `Quick
            test_cache_lru_touch_reorders;
          Alcotest.test_case "of-planes hit status" `Quick test_compile_of_pla_hit_status;
          Alcotest.test_case "evaluator recompiles a rotted entry" `Quick
            test_evaluator_recompiles_rot;
          Alcotest.test_case "evaluator uncompiled under store rot" `Quick
            test_evaluator_uncompiled_under_store_rot;
        ] );
      ( "bit-sliced eval",
        [
          Alcotest.test_case "transpose round-trip" `Quick test_transpose_roundtrip;
          Alcotest.test_case "transpose input validation" `Quick
            test_transpose_rejects_bad_input;
          Alcotest.test_case "eval_block = scalar eval" `Quick test_eval_block_matches_scalar;
          Alcotest.test_case "eval_batch ragged tail" `Quick test_eval_batch_ragged_tail;
          Alcotest.test_case "blocked sweep_compiled" `Quick
            test_sweep_compiled_blocked_matches_pla;
          Alcotest.test_case "sliced-array corruption detected" `Quick
            test_block_corruption_detected;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles = Util.Stats" `Quick
            test_histogram_percentiles_match_stats;
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters_and_gauges;
          Alcotest.test_case "pool instrumentation" `Quick test_pool_records_metrics;
          Alcotest.test_case "batch map counters" `Quick test_batch_map_counts;
          Alcotest.test_case "histogram memory is fixed" `Quick test_histogram_fixed_memory;
          Alcotest.test_case "histogram shards across domains" `Quick test_histogram_across_domains;
          Alcotest.test_case "histogram zero bucket" `Quick test_histogram_zero_bucket;
          Alcotest.test_case "histogram time" `Quick test_histogram_time_monotonic;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
          Alcotest.test_case "single-sample histogram" `Quick test_histogram_single_sample;
          Alcotest.test_case "percentile clamping" `Quick test_histogram_percentile_clamps;
          Alcotest.test_case "incr_named across domains" `Quick test_incr_named_across_domains;
          Alcotest.test_case "span observer histograms" `Quick test_span_observer_feeds_histogram;
        ] );
      ( "failures",
        [
          Alcotest.test_case "smallest failing index" `Quick
            test_batch_reports_smallest_failing_index;
          Alcotest.test_case "await re-raises" `Quick test_await_reraises;
          Alcotest.test_case "submit after shutdown" `Quick test_submit_after_shutdown_rejected;
        ] );
      ( "stop protocol",
        [
          Alcotest.test_case "drain finishes queued work" `Quick test_drain_finishes_queued;
          Alcotest.test_case "shutdown poisons queued-unstarted" `Quick
            test_shutdown_poisons_queued;
          Alcotest.test_case "concurrent stoppers" `Quick test_concurrent_stoppers;
        ] );
    ]
