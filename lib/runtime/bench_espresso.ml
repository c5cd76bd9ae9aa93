(* Espresso + cover-kernel microbenchmarks shared by the [bench-espresso]
   CLI subcommand and the [espresso] section of bench/main.exe.

   For each Table-1 MCNC profile (max46, apla, t2 — via their synthetic
   twins) and a few generator functions, the harness measures:

     - espresso minimize wall-time on the unminimized on-set;
     - cover set-operation throughput (contains/distance/intersect/
       supercube2 over all cube pairs) through the word-parallel packed
       kernel AND through the retained byte-per-literal reference
       ({!Logic.Cube_naive}), cross-checking both paths' checksums;
     - compiled-PLA evaluation throughput on random minterms.

   The packed-vs-naive ratio is the measured speedup of the bit-packed
   representation. Reports render to BENCH_espresso.json. *)

module Cube = Logic.Cube
module Cube_naive = Logic.Cube_naive
module Cover = Logic.Cover

type report = {
  name : string;
  n_in : int;
  n_out : int;
  cubes_before : int;
  cubes_after : int;
  lits_after : int;
  minimize_s : float;
  iterations : int;
  packed_mops : float;  (* million cover set-ops per second, packed kernel *)
  naive_mops : float;  (* same workload through the naive reference *)
  op_speedup : float;  (* packed_mops / naive_mops *)
  eval_mevals : float;  (* million compiled-PLA evals per second, one vector a call *)
  eval_block_mevals : float;  (* same workload through the bit-sliced path *)
  block_speedup : float;  (* eval_block_mevals / eval_mevals *)
  identical : bool;  (* packed and naive op checksums agree *)
  block_identical : bool;  (* blocked eval bit-identical to Pla.eval *)
}

(* Run [f] repeatedly until [min_s] of wall time has accumulated (at least
   once); returns (last result, seconds per run). *)
let time_amortized ~min_s f =
  let t0 = Unix.gettimeofday () in
  let v = ref (f ()) in
  let reps = ref 1 in
  while Unix.gettimeofday () -. t0 < min_s do
    v := f ();
    incr reps
  done;
  (!v, (Unix.gettimeofday () -. t0) /. float_of_int !reps)

(* One pass of cover set-ops over all ordered cube pairs, folded into a
   checksum so the work cannot be optimized away and the two kernels can
   be cross-checked. 4 ops per pair. *)
let packed_pass cubes =
  let n = Array.length cubes in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let ci = cubes.(i) in
    for j = 0 to n - 1 do
      let cj = cubes.(j) in
      acc := !acc + Cube.distance ci cj;
      if Cube.contains ci cj then incr acc;
      (match Cube.intersect ci cj with
      | Some x -> acc := !acc + Cube.literal_count x
      | None -> ());
      acc := !acc + Cube.literal_count (Cube.supercube2 ci cj)
    done
  done;
  !acc

let naive_pass cubes =
  let n = Array.length cubes in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let ci = cubes.(i) in
    for j = 0 to n - 1 do
      let cj = cubes.(j) in
      acc := !acc + Cube_naive.distance ci cj;
      if Cube_naive.contains ci cj then incr acc;
      (match Cube_naive.intersect ci cj with
      | Some x -> acc := !acc + Cube_naive.literal_count x
      | None -> ());
      acc := !acc + Cube_naive.literal_count (Cube_naive.supercube2 ci cj)
    done
  done;
  !acc

let bench_function ~quick ~rng name on_set =
  Obs.Span.with_ ~args:[ ("function", name) ] "bench.function" @@ fun () ->
  let min_s = if quick then 0.02 else 0.2 in
  let n_in = Cover.num_inputs on_set and n_out = Cover.num_outputs on_set in
  let result, minimize_s =
    time_amortized ~min_s (fun () -> Espresso.Minimize.minimize on_set)
  in
  (* Cover-op throughput over the on-set's cubes, both kernels. *)
  let packed = Cover.to_array on_set in
  let naive = Array.map Cube_naive.of_cube packed in
  let ops_per_pass = 4 * Array.length packed * Array.length packed in
  let packed_sum, packed_pass_s =
    time_amortized ~min_s (fun () -> packed_pass packed)
  in
  let naive_sum, naive_pass_s = time_amortized ~min_s (fun () -> naive_pass naive) in
  let mops s = float_of_int ops_per_pass /. s /. 1e6 in
  (* Compiled-PLA evaluation on random minterms. *)
  let compiled = Cache.compile (Cache.create ~capacity:4 ()) result.Espresso.Minimize.cover in
  let n_minterms = 1024 in
  let minterms =
    Array.init n_minterms (fun _ -> Array.init n_in (fun _ -> Util.Rng.bool rng))
  in
  let _, eval_s =
    time_amortized ~min_s (fun () ->
        let acc = ref 0 in
        Array.iter
          (fun m -> if (Cache.eval compiled m).(0) then incr acc)
          minterms;
        !acc)
  in
  (* The same minterms through the bit-sliced path: 63-lane blocks, the
     last one partial, folding output 0's popcount so the sweep cannot
     be optimized away. *)
  let lanes_max = Cache.lanes_per_word in
  let n_blocks = (n_minterms + lanes_max - 1) / lanes_max in
  let block b =
    let first = b * lanes_max in
    Cache.transpose minterms ~first ~lanes:(min lanes_max (n_minterms - first))
  in
  let popcount v =
    let rec go v acc = if v = 0 then acc else go (v land (v - 1)) (acc + 1) in
    go v 0
  in
  let _, eval_block_s =
    time_amortized ~min_s (fun () ->
        let acc = ref 0 in
        for b = 0 to n_blocks - 1 do
          acc := !acc + popcount (Cache.eval_block compiled (block b)).(0)
        done;
        !acc)
  in
  (* Checked against [Pla.eval], which shares no code with the compiled
     evaluator. *)
  let block_identical =
    let pla = Cache.pla compiled in
    let ok = ref true in
    for b = 0 to n_blocks - 1 do
      let { Cache.lanes; _ } as blk = block b in
      let outs = Cache.untranspose (Cache.eval_block compiled blk) ~lanes in
      for v = 0 to lanes - 1 do
        if outs.(v) <> Cnfet.Pla.eval pla minterms.((b * lanes_max) + v) then ok := false
      done
    done;
    !ok
  in
  {
    name;
    n_in;
    n_out;
    cubes_before = Cover.size on_set;
    cubes_after = Cover.size result.Espresso.Minimize.cover;
    lits_after = Cover.literal_total result.Espresso.Minimize.cover;
    minimize_s;
    iterations = result.Espresso.Minimize.iterations;
    packed_mops = mops packed_pass_s;
    naive_mops = mops naive_pass_s;
    op_speedup = naive_pass_s /. packed_pass_s;
    eval_mevals = float_of_int n_minterms /. eval_s /. 1e6;
    eval_block_mevals = float_of_int n_minterms /. eval_block_s /. 1e6;
    block_speedup = eval_s /. eval_block_s;
    identical = packed_sum = naive_sum;
    block_identical;
  }

let run ?metrics ?(quick = false) ?(seed = 2008) () =
  (match metrics with Some m -> Metrics.register_library_gauges m | None -> ());
  let rng = Util.Rng.create seed in
  (* Synthetic twins of the paper's Table-1 workloads. *)
  let profile_reports =
    List.map
      (fun r ->
        bench_function ~quick ~rng
          (r.Mcnc.Synthetic.profile.Mcnc.Profiles.name ^ "-synth")
          r.Mcnc.Synthetic.on_set)
      (Mcnc.Synthetic.table1_set (Util.Rng.create seed))
  in
  let generator_reports =
    if quick then []
    else
      List.map
        (fun (name, f) -> bench_function ~quick ~rng name f)
        (List.filter
           (fun (_, f) -> Cover.num_inputs f <= 10)
           Mcnc.Generators.all)
  in
  profile_reports @ generator_reports

let geomean_speedup reports =
  match reports with
  | [] -> 1.0
  | _ ->
    exp
      (List.fold_left (fun acc r -> acc +. log r.op_speedup) 0.0 reports
      /. float_of_int (List.length reports))

let geomean_block_speedup reports =
  match reports with
  | [] -> 1.0
  | _ ->
    exp
      (List.fold_left (fun acc r -> acc +. log r.block_speedup) 0.0 reports
      /. float_of_int (List.length reports))

(* --- Assess.Run emission -------------------------------------------------- *)

let profile_name ~quick = if quick then "espresso-quick" else "espresso-full"

(* Per-function scalar fields worth tracking across repeats. Correctness
   flags ride along as 0/1 series so an A/B run surfaces a cross-check
   flip as a (maximally) regressed metric, not just a CI grep. *)
let report_fields =
  [
    ("minimize_s", "s", false, fun r -> r.minimize_s);
    ("packed_mops", "Mop/s", true, fun r -> r.packed_mops);
    ("naive_mops", "Mop/s", true, fun r -> r.naive_mops);
    ("op_speedup", "x", true, fun r -> r.op_speedup);
    ("eval_mevals", "Mev/s", true, fun r -> r.eval_mevals);
    ("eval_block_mevals", "Mev/s", true, fun r -> r.eval_block_mevals);
    ("block_speedup", "x", true, fun r -> r.block_speedup);
    ("identical", "bool", true, fun r -> if r.identical then 1. else 0.);
    ("block_identical", "bool", true, fun r -> if r.block_identical then 1. else 0.);
  ]

(* [repeats] is one report list per full bench repeat; every repeat runs
   the same profile, so sample [i] of every metric comes from the same
   pass — the pairing the A/B comparator leans on. *)
let metrics_of_repeats (repeats : report list list) : Assess.Run.metric list =
  match repeats with
  | [] -> []
  | first :: _ ->
    let series_of fn_name (field, units, higher_is_better, get) =
      let samples =
        List.filter_map
          (fun reports ->
            Option.map get (List.find_opt (fun r -> r.name = fn_name) reports))
          repeats
      in
      Assess.Run.metric ~units ~higher_is_better
        (fn_name ^ "/" ^ field)
        (Array.of_list samples)
    in
    let per_function =
      List.concat_map (fun r -> List.map (series_of r.name) report_fields) first
    in
    let geomean units name f =
      Assess.Run.metric ~units ~higher_is_better:true name
        (Array.of_list (List.map f repeats))
    in
    per_function
    @ [
        geomean "x" "geomean/op_speedup" geomean_speedup;
        geomean "x" "geomean/block_speedup" geomean_block_speedup;
      ]

let run_assess ?metrics ?(quick = false) ?(seed = 2008) ?(repeats = 1) () =
  let t0 = Unix.gettimeofday () in
  let all = List.init (max 1 repeats) (fun _ -> run ?metrics ~quick ~seed ()) in
  let wall_s = Unix.gettimeofday () -. t0 in
  let arun =
    Assess.Run.create
      ~meta:
        [
          ("bench", "espresso");
          ("quick", string_of_bool quick);
          ("repeats", string_of_int (max 1 repeats));
        ]
      ~profile:(profile_name ~quick) ~seed ~wall_s (metrics_of_repeats all)
  in
  (List.rev all |> List.hd, arun)

(* Switch-level cross-check: minimize a small comparator, program it onto
   a PLA, and simulate the ambipolar-CNFET netlist against the symbolic
   evaluator over every minterm. Cheap enough for CI smoke runs, and it
   exercises the circuit simulator (so a traced bench run records spans
   from the espresso, runtime and circuit subsystems even in quick
   mode). *)
let hw_crosscheck () =
  Obs.Span.with_ "bench.hw-crosscheck" @@ fun () ->
  let on_set = Mcnc.Generators.comparator ~bits:2 in
  let result = Espresso.Minimize.minimize on_set in
  let compiled =
    Cache.compile (Cache.create ~capacity:4 ()) result.Espresso.Minimize.cover
  in
  let pla = Cache.pla compiled in
  let hw = Cnfet.Pla.build_hw pla in
  let n_in = Cnfet.Pla.num_inputs pla in
  let ok = ref true in
  for m = 0 to (1 lsl n_in) - 1 do
    let inputs = Array.init n_in (fun i -> m land (1 lsl i) <> 0) in
    if Cnfet.Pla.simulate_hw hw inputs <> Cache.eval compiled inputs then ok := false
  done;
  !ok

(* --- JSON rendering ------------------------------------------------------ *)

let json_of_report r =
  Printf.sprintf
    "{\"name\":\"%s\",\"n_in\":%d,\"n_out\":%d,\"cubes_before\":%d,\"cubes_after\":%d,\"lits_after\":%d,\"minimize_s\":%.6f,\"iterations\":%d,\"packed_mops\":%.3f,\"naive_mops\":%.3f,\"op_speedup\":%.3f,\"eval_mevals\":%.3f,\"eval_block_mevals\":%.3f,\"block_speedup\":%.3f,\"identical\":%b,\"block_identical\":%b}"
    (Assess.Json.escape_string r.name) r.n_in r.n_out r.cubes_before r.cubes_after
    r.lits_after r.minimize_s r.iterations r.packed_mops r.naive_mops r.op_speedup
    r.eval_mevals r.eval_block_mevals r.block_speedup r.identical r.block_identical

let counters_json () =
  let naive = Espresso.Minimize.blocker_scans_naive_total () in
  let scans = Espresso.Minimize.blocker_scans_total () in
  let pairs = Cover.scc_pairs_total () in
  let checks = Cover.scc_checks_total () in
  let rate saved total = if total = 0 then 0.0 else 1.0 -. (float_of_int saved /. float_of_int total) in
  Printf.sprintf
    "{\"minimize_calls\":%d,\"minimize_iterations\":%d,\"expand_cubes\":%d,\"blocker_scans\":%d,\"blocker_scans_naive\":%d,\"blocker_cache_savings\":%.4f,\"scc_calls\":%d,\"scc_checks\":%d,\"scc_pairs\":%d,\"scc_prune_rate\":%.4f}"
    (Espresso.Minimize.calls_total ())
    (Espresso.Minimize.iterations_total ())
    (Espresso.Minimize.expand_cubes_total ())
    scans naive (rate scans naive) (Cover.scc_calls_total ()) checks pairs
    (rate checks pairs)

let to_json ~quick ~seed reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string buf "  \"functions\": [\n    ";
  Buffer.add_string buf (String.concat ",\n    " (List.map json_of_report reports));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"op_speedup_geomean\": %.3f,\n" (geomean_speedup reports));
  Buffer.add_string buf
    (Printf.sprintf "  \"block_speedup_geomean\": %.3f,\n"
       (geomean_block_speedup reports));
  Buffer.add_string buf (Printf.sprintf "  \"espresso_counters\": %s\n" (counters_json ()));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_json ~quick ~seed ~path reports =
  let oc = open_out path in
  output_string oc (to_json ~quick ~seed reports);
  close_out oc

let pp_report fmt r =
  Format.fprintf fmt
    "%-16s %2d in %2d out  %3d->%3d cubes  min %8.4fs  ops %8.2f vs %8.2f Mop/s  %5.2fx  eval %6.2f vs %6.2f Mev/s  %5.2fx  %s"
    r.name r.n_in r.n_out r.cubes_before r.cubes_after r.minimize_s r.packed_mops
    r.naive_mops r.op_speedup r.eval_mevals r.eval_block_mevals r.block_speedup
    (if r.identical && r.block_identical then "bit-identical" else "MISMATCH")
