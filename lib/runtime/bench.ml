(* The sequential-vs-parallel evaluation harness shared by the
   [bench-parallel] CLI subcommand and the [parallel] section of
   bench/main.exe.

   Every workload runs its sequential reference first, then the same work
   through {!Batch} on a {!Pool}, checks the two results bit-for-bit, and
   reports wall times. The reports (plus cache and histogram state) render
   to machine-readable JSON — BENCH_runtime.json in CI. *)

module Pla = Cnfet.Pla

type report = {
  name : string;
  items : int;
  seq_s : float;
  par_s : float;
  speedup : float;
  identical : bool;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let minterm = Batch.minterm

(* MCNC generator functions small enough for exhaustive switch-level
   sweeps. *)
let sweep_functions () =
  List.filter
    (fun (_, f) -> Logic.Cover.num_inputs f <= 7)
    Mcnc.Generators.all

(* --- workload 1: exhaustive switch-level sweeps over Table-1 functions --- *)

let hw_sweep ?metrics pool =
  let cases =
    List.map (fun (name, f) -> (name, Pla.of_minimized f)) (sweep_functions ())
  in
  let items =
    List.fold_left (fun n (_, pla) -> n + (1 lsl Pla.num_inputs pla)) 0 cases
  in
  let sequential () =
    List.map
      (fun (_, pla) ->
        let hw = Pla.build_hw pla in
        let n = Pla.num_inputs pla in
        Array.init (1 lsl n) (fun m -> Pla.simulate_hw hw (minterm n m)))
      cases
  in
  let parallel () = List.map (fun (_, pla) -> Batch.sweep_pla_hw ?metrics pool pla) cases in
  let seq, seq_s = time sequential in
  let par, par_s = time parallel in
  {
    name = "table1-hw-sweep";
    items;
    seq_s;
    par_s;
    speedup = (if par_s > 0.0 then seq_s /. par_s else 0.0);
    identical = seq = par;
  }

(* --- workload 2: compiled functional sweeps through the PLA cache -------- *)

let compiled_sweep ?metrics ~cache ~rounds pool =
  let cases = sweep_functions () in
  let covers = List.map (fun (_, f) -> Espresso.Minimize.cover f) cases in
  let items = rounds * List.fold_left (fun n c -> n + (1 lsl Logic.Cover.num_inputs c)) 0 covers in
  (* Each round re-requests every cover from the cache, modelling repeated
     service traffic over a small working set: first round misses, the
     rest hit. *)
  let sequential () =
    List.init rounds (fun _ ->
        List.map
          (fun cover ->
            let compiled = Cache.compile cache cover in
            let n = Logic.Cover.num_inputs cover in
            Array.init (1 lsl n) (fun m -> Cache.eval compiled (minterm n m)))
          covers)
  in
  let parallel () =
    List.init rounds (fun _ ->
        List.map
          (fun cover ->
            let compiled = Cache.compile cache cover in
            Batch.sweep_compiled ?metrics pool compiled)
          covers)
  in
  let seq, seq_s = time sequential in
  let par, par_s = time parallel in
  (* Also cross-check the compiled evaluator against the uncompiled model. *)
  let reference =
    List.map
      (fun cover ->
        let pla = Pla.of_cover cover in
        let n = Logic.Cover.num_inputs cover in
        Array.init (1 lsl n) (fun m -> Pla.eval pla (minterm n m)))
      covers
  in
  let identical = seq = par && List.for_all (fun round -> round = reference) seq in
  {
    name = "compiled-cache-sweep";
    items;
    seq_s;
    par_s;
    speedup = (if par_s > 0.0 then seq_s /. par_s else 0.0);
    identical;
  }

(* --- workload 3: Monte-Carlo yield -------------------------------------- *)

let yield_mc ?metrics ~seed ~trials pool =
  let pla = Pla.of_minimized (Mcnc.Generators.comparator ~bits:3) in
  let defect_rate = 0.02 and spare_rows = 3 in
  let sequential () =
    let rngs = Batch.split_rngs (Util.Rng.create seed) trials in
    Fault.Yield.point_of_outcomes ~defect_rate
      (Array.map (fun r -> Fault.Yield.trial r ~spare_rows pla ~defect_rate) rngs)
  in
  let parallel () =
    Batch.yield_estimate ?metrics pool (Util.Rng.create seed) ~trials ~spare_rows pla
      ~defect_rate
  in
  let seq, seq_s = time sequential in
  let par, par_s = time parallel in
  {
    name = "yield-monte-carlo";
    items = trials;
    seq_s;
    par_s;
    speedup = (if par_s > 0.0 then seq_s /. par_s else 0.0);
    identical = seq = par;
  }

(* --- workload 4: device-variation Monte-Carlo ---------------------------- *)

let variation_mc ?metrics ~seed ~trials pool =
  let profile = { Cnfet.Area.n_in = 9; n_out = 1; n_products = 46 } in
  let tech = Device.Tech.cnfet in
  let sigma = 0.15 in
  let sequential () =
    let rngs = Batch.split_rngs (Util.Rng.create seed) trials in
    Cnfet.Pla_timing.variation_of_delays tech profile
      (Array.to_list (Array.map (fun r -> Cnfet.Pla_timing.trial_delay r ~sigma tech profile) rngs))
  in
  let parallel () =
    Batch.variation_monte_carlo ?metrics pool (Util.Rng.create seed) ~trials ~sigma tech
      profile
  in
  let seq, seq_s = time sequential in
  let par, par_s = time parallel in
  {
    name = "variation-monte-carlo";
    items = trials;
    seq_s;
    par_s;
    speedup = (if par_s > 0.0 then seq_s /. par_s else 0.0);
    identical = seq = par;
  }

(* --- driver -------------------------------------------------------------- *)

let run ?metrics ?cache ?(seed = 2008) ?(trials = 1000) ~jobs () =
  let cache = match cache with Some c -> c | None -> Cache.create () in
  (match metrics with
  | Some m ->
    Metrics.register_library_gauges m;
    Cache.export_metrics cache m
  | None -> ());
  Pool.with_pool ?metrics ~jobs (fun pool ->
      [
        hw_sweep ?metrics pool;
        compiled_sweep ?metrics ~cache ~rounds:8 pool;
        yield_mc ?metrics ~seed ~trials pool;
        variation_mc ?metrics ~seed ~trials:(8 * trials) pool;
      ])

(* --- Assess.Run emission -------------------------------------------------- *)

let profile_name = "parallel"

let report_fields =
  [
    ("seq_s", "s", false, fun r -> r.seq_s);
    ("par_s", "s", false, fun r -> r.par_s);
    ("speedup", "x", true, fun r -> r.speedup);
    ("identical", "bool", true, fun r -> if r.identical then 1. else 0.);
  ]

let metrics_of_repeats (repeats : report list list) : Assess.Run.metric list =
  match repeats with
  | [] -> []
  | first :: _ ->
    let series_of wl_name (field, units, higher_is_better, get) =
      let samples =
        List.filter_map
          (fun reports ->
            Option.map get (List.find_opt (fun r -> r.name = wl_name) reports))
          repeats
      in
      Assess.Run.metric ~units ~higher_is_better
        (wl_name ^ "/" ^ field)
        (Array.of_list samples)
    in
    List.concat_map (fun r -> List.map (series_of r.name) report_fields) first

let run_assess ?metrics ?cache ?(seed = 2008) ?(trials = 1000) ?(repeats = 1) ~jobs () =
  let t0 = Unix.gettimeofday () in
  let all =
    List.init (max 1 repeats) (fun _ -> run ?metrics ?cache ~seed ~trials ~jobs ())
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let arun =
    Assess.Run.create
      ~meta:
        [
          ("bench", "parallel");
          ("jobs", string_of_int jobs);
          ("trials", string_of_int trials);
          ("repeats", string_of_int (max 1 repeats));
        ]
      ~profile:profile_name ~seed ~wall_s (metrics_of_repeats all)
  in
  (List.rev all |> List.hd, arun)

(* --- JSON rendering ------------------------------------------------------ *)

let json_of_report r =
  Printf.sprintf
    "{\"name\":\"%s\",\"items\":%d,\"seq_s\":%.6f,\"par_s\":%.6f,\"speedup\":%.3f,\"identical\":%b}"
    (Assess.Json.escape_string r.name) r.items r.seq_s r.par_s r.speedup r.identical

let to_json ?cache ?metrics ~jobs reports =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf
    (Printf.sprintf "  \"recommended_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"workloads\": [\n    ";
  Buffer.add_string buf (String.concat ",\n    " (List.map json_of_report reports));
  Buffer.add_string buf "\n  ]";
  (match cache with
  | Some c ->
    Buffer.add_string buf
      (Printf.sprintf
         ",\n  \"cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d, \"entries\": %d, \"hit_rate\": %.4f}"
         (Cache.hits c) (Cache.misses c) (Cache.evictions c) (Cache.size c) (Cache.hit_rate c))
  | None -> ());
  (match metrics with
  | Some m ->
    let hists =
      List.map
        (fun (name, s) ->
          Printf.sprintf
            "\"%s\": {\"n\": %d, \"mean\": %.6g, \"min\": %.6g, \"p50\": %.6g, \"p95\": %.6g, \"p99\": %.6g, \"max\": %.6g}"
            (Assess.Json.escape_string name) s.Histogram.n s.Histogram.mean s.Histogram.min
            s.Histogram.p50 s.Histogram.p95 s.Histogram.p99 s.Histogram.max)
        (Metrics.histograms m)
    in
    Buffer.add_string buf
      (Printf.sprintf ",\n  \"histograms\": {%s}" (String.concat ", " hists))
  | None -> ());
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write_json ?cache ?metrics ~jobs ~path reports =
  let oc = open_out path in
  output_string oc (to_json ?cache ?metrics ~jobs reports);
  close_out oc

let pp_report fmt r =
  Format.fprintf fmt "%-24s %7d items  seq %8.3fs  par %8.3fs  %5.2fx  %s" r.name r.items
    r.seq_s r.par_s r.speedup
    (if r.identical then "bit-identical" else "MISMATCH")
