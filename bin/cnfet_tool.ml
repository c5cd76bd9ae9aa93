(* Command-line front end for the ambipolar-CNFET PLA library.

   Subcommands:
     minimize  — espresso-minimize a .pla file
     area      — PLA area of a .pla file in all three technologies
     simulate  — evaluate a .pla on an input vector (functional + switch level)
     phase     — output-phase optimization report
     factor    — algebraic factoring (multi-level synthesis front end)
     map       — split into CLB-sized blocks (Shannon decomposition)
     fpga      — the Table 2 experiment
     yield     — Monte-Carlo yield of a mapped .pla under defects
     suite     — export the benchmark suite as .pla/.blif files
     bench-parallel — sequential vs parallel batch-evaluation benchmark
     bench-espresso — word-parallel cover kernel + minimization benchmark
     bench-ab  — compare two Assess.Run artifacts, exit non-zero on regression
     serve     — the evaluation service daemon (socket or stdin/stdout pipe)
     loadgen   — closed-loop load generator + oracle checker for serve *)

open Cmdliner

let read_spec path =
  try Ok (Logic.Pla_io.parse_file path) with
  | Logic.Pla_io.Parse_error (line, msg) ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error msg -> Error msg

let pla_file =
  let doc = "Input function in espresso .pla format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.pla" ~doc)

let exits = Cmd.Exit.defaults

(* --- shared --trace support -------------------------------------------------- *)

let trace_arg =
  let doc =
    "Record tracing spans during the run and write them as Chrome trace-event \
     JSON to $(docv) (loadable in chrome://tracing or ui.perfetto.dev). A \
     hierarchical self/total text profile is printed afterwards, and every \
     span feeds a $(b,span.)* histogram in the metrics registry."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Install a process-wide collector around [f], then flush it: Chrome JSON
   to [path], text profile + span summary to stdout. The collector is
   uninstalled (and the file written) whether [f] returns or raises. *)
let with_tracing trace f =
  match trace with
  | None -> f ()
  | Some path ->
    let t = Obs.Trace.create () in
    Obs.Trace.set_observer t (fun ~name ~dur_s ->
        Runtime.Metrics.span_observer Runtime.Metrics.global ~name ~dur_s);
    Obs.Trace.install t;
    let flush () =
      Obs.Trace.uninstall ();
      let events = Obs.Trace.events t in
      let oc = open_out path in
      output_string oc (Obs.Export.to_chrome_json events);
      close_out oc;
      Printf.printf "trace: %d events on %d track(s), %d dropped; subsystems: %s\n"
        (List.length events) (Obs.Trace.tracks t) (Obs.Trace.dropped t)
        (String.concat ", " (Obs.Export.subsystems events));
      Printf.printf "trace written to %s\n" path;
      print_string (Obs.Export.text_profile events)
    in
    Fun.protect ~finally:flush f

(* --- shared assess-run emission ---------------------------------------------- *)

let run_out_arg =
  let doc =
    "Also write the run as an $(b,Assess.Run) artifact directory under $(docv) \
     (run.json + index.tsv entry) for $(b,bench-ab) comparison. The path of the \
     new run directory is printed as $(b,assess run: PATH)."
  in
  Arg.(value & opt (some string) None & info [ "run-out" ] ~docv:"DIR" ~doc)

let repeats_arg =
  let doc =
    "Repeat the whole measurement $(docv) times and record every repeat as a \
     sample in the metric series (>= 3 recommended before trusting an A/B \
     verdict's confidence interval)."
  in
  Arg.(value & opt int 1 & info [ "repeats" ] ~docv:"N" ~doc)

(* Save [arun] under [dir] and print where it went; a failed save is a
   hard error (the caller usually feeds the path into a CI gate). *)
let save_assess_run ~dir arun =
  match Assess.Run.save ~dir arun with
  | Ok path ->
    Printf.printf "assess run: %s\n" path;
    false
  | Error e ->
    Printf.eprintf "cnfet_tool: cannot write assess run: %s\n" (Assess.Run.error_to_string e);
    true

(* --- minimize ---------------------------------------------------------------- *)

let minimize_cmd =
  let run path output =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let r = Espresso.Minimize.minimize ~dc:spec.Logic.Pla_io.dc_set spec.Logic.Pla_io.on_set in
      let c0, l0 = r.Espresso.Minimize.initial_cost in
      let c1, l1 = r.Espresso.Minimize.final_cost in
      Printf.eprintf "minimized: %d cubes / %d literals -> %d cubes / %d literals (%d rounds)\n"
        c0 l0 c1 l1 r.Espresso.Minimize.iterations;
      let text =
        Logic.Pla_io.to_string
          ?input_labels:spec.Logic.Pla_io.input_labels
          ?output_labels:spec.Logic.Pla_io.output_labels ~on_set:r.Espresso.Minimize.cover
          ~dc_set:
            (Logic.Cover.empty ~n_in:spec.Logic.Pla_io.n_in ~n_out:spec.Logic.Pla_io.n_out)
          ()
      in
      (match output with
      | None -> print_string text
      | Some out ->
        let oc = open_out out in
        output_string oc text;
        close_out oc);
      0
  in
  let output =
    let doc = "Write the minimized cover to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let doc = "Espresso-minimize a two-level function" in
  Cmd.v (Cmd.info "minimize" ~doc ~exits) Term.(const run $ pla_file $ output)

(* --- area -------------------------------------------------------------------- *)

let area_cmd =
  let run path no_minimize =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let cover =
        if no_minimize then spec.Logic.Pla_io.on_set
        else Espresso.Minimize.cover ~dc:spec.Logic.Pla_io.dc_set spec.Logic.Pla_io.on_set
      in
      let p = Cnfet.Area.profile_of_cover cover in
      Printf.printf "profile: %d inputs, %d outputs, %d products%s\n" p.Cnfet.Area.n_in
        p.Cnfet.Area.n_out p.Cnfet.Area.n_products
        (if no_minimize then "" else " (after espresso)");
      let t = Util.Tableau.create [ "technology"; "area (L^2)"; "input wires"; "vs CNFET" ] in
      let cnfet_area = Cnfet.Area.pla_area Device.Tech.cnfet p in
      List.iter
        (fun fam ->
          let tech = Device.Tech.get fam in
          let area = Cnfet.Area.pla_area tech p in
          Util.Tableau.add_row t
            [
              Device.Tech.name fam;
              Util.Tableau.cell_int area;
              string_of_int (Cnfet.Area.input_wires tech p);
              Printf.sprintf "%.2fx" (float_of_int area /. float_of_int cnfet_area);
            ])
        Device.Tech.all;
      Util.Tableau.print t;
      0
  in
  let no_minimize =
    let doc = "Use the cover as-is instead of minimizing first." in
    Arg.(value & flag & info [ "no-minimize" ] ~doc)
  in
  let doc = "PLA area in Flash / EEPROM / ambipolar-CNFET technologies" in
  Cmd.v (Cmd.info "area" ~doc ~exits) Term.(const run $ pla_file $ no_minimize)

(* --- simulate ----------------------------------------------------------------- *)

let simulate_cmd =
  let run path vector switch_level =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let n_in = spec.Logic.Pla_io.n_in in
      if String.length vector <> n_in then begin
        Printf.eprintf "input vector must have %d bits\n" n_in;
        1
      end
      else begin
        let inputs = Array.init n_in (fun i -> vector.[i] = '1') in
        let pla = Cnfet.Pla.of_minimized ~dc:spec.Logic.Pla_io.dc_set spec.Logic.Pla_io.on_set in
        let outputs =
          if switch_level then Cnfet.Pla.simulate_hw (Cnfet.Pla.build_hw pla) inputs
          else Cnfet.Pla.eval pla inputs
        in
        Array.iter (fun b -> print_char (if b then '1' else '0')) outputs;
        print_newline ();
        0
      end
  in
  let vector =
    let doc = "Input assignment as a 0/1 string, first input leftmost." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"BITS" ~doc)
  in
  let switch_level =
    let doc = "Simulate the programmed transistor network (pre-charge/evaluate phases) instead of the zero-delay model." in
    Arg.(value & flag & info [ "switch-level" ] ~doc)
  in
  let doc = "Evaluate a function mapped onto a CNFET PLA" in
  Cmd.v (Cmd.info "simulate" ~doc ~exits) Term.(const run $ pla_file $ vector $ switch_level)

(* --- phase -------------------------------------------------------------------- *)

let phase_cmd =
  let run path =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let r = Espresso.Phase.optimize ~dc:spec.Logic.Pla_io.dc_set spec.Logic.Pla_io.on_set in
      Printf.printf "all-positive products: %d\n" r.Espresso.Phase.products_all_positive;
      Printf.printf "phase-optimized:       %d\n" r.Espresso.Phase.products_optimized;
      Array.iteri
        (fun o pos -> Printf.printf "  output %d: %s phase\n" o (if pos then "positive" else "negative"))
        r.Espresso.Phase.phases;
      0
  in
  let doc = "Output-phase optimization (Sasao / MINI II style)" in
  Cmd.v (Cmd.info "phase" ~doc ~exits) Term.(const run $ pla_file)

(* --- factor ------------------------------------------------------------------- *)

let factor_cmd =
  let run path =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let m = Espresso.Minimize.cover ~dc:spec.Logic.Pla_io.dc_set spec.Logic.Pla_io.on_set in
      let exprs = Espresso.Factor.factor_multi m in
      Array.iteri
        (fun o e ->
          Printf.printf "f%d = %s\n" o (Espresso.Factor.to_string e))
        exprs;
      let flat = Espresso.Factor.flat_literal_count m in
      let fact = Array.fold_left (fun n e -> n + Espresso.Factor.literal_count e) 0 exprs in
      Printf.eprintf "literals: %d (flat SOP, shared) -> %d (factored, per output); verified: %b\n"
        flat fact
        (Espresso.Factor.verify m exprs);
      0
  in
  let doc = "Algebraic factoring of a minimized two-level function" in
  Cmd.v (Cmd.info "factor" ~doc ~exits) Term.(const run $ pla_file)

(* --- map ---------------------------------------------------------------------- *)

let map_cmd =
  let run path clb_inputs =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let m = Fpga.Map.map_cover ~clb_inputs spec.Logic.Pla_io.on_set in
      Printf.printf "mapped into %d CLB blocks (%d levels, max fanin %d), equivalent: %b\n"
        (Fpga.Map.block_count m) (Fpga.Map.levels m) (Fpga.Map.max_block_inputs m)
        (if spec.Logic.Pla_io.n_in <= 20 then Fpga.Map.verify_against m spec.Logic.Pla_io.on_set
         else true);
      0
  in
  let clb_inputs =
    let doc = "CLB input budget." in
    Arg.(value & opt int 6 & info [ "k"; "clb-inputs" ] ~docv:"K" ~doc)
  in
  let doc = "Split a function into CLB-sized blocks (Shannon decomposition)" in
  Cmd.v (Cmd.info "map" ~doc ~exits) Term.(const run $ pla_file $ clb_inputs)

(* --- fpga --------------------------------------------------------------------- *)

let fpga_cmd =
  let run grid seed =
    let t = Fpga.Flow.table2_experiment ~seed ~grid () in
    Format.printf "%a@.%a@.speed-up: %.2fx@." Fpga.Flow.pp_outcome t.Fpga.Flow.standard
      Fpga.Flow.pp_outcome t.Fpga.Flow.cnfet t.Fpga.Flow.speedup;
    0
  in
  let grid =
    let doc = "Standard-FPGA grid side (the paper-scale experiment uses 17)." in
    Arg.(value & opt int 17 & info [ "grid" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Random seed for design generation, placement and routing." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let doc = "Run the Table 2 FPGA experiment (place, route, time)" in
  Cmd.v (Cmd.info "fpga" ~doc ~exits) Term.(const run $ grid $ seed)

(* --- suite -------------------------------------------------------------------- *)

let suite_cmd =
  let run dir =
    let written = Mcnc.Export.write_suite ~dir in
    List.iter (fun (name, path) -> Printf.printf "%-12s -> %s\n" name path) written;
    Printf.printf "%d functions written (.pla + .blif) under %s\n" (List.length written) dir;
    0
  in
  let dir =
    let doc = "Output directory." in
    Arg.(value & opt string "benchmarks" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let doc = "Export the benchmark suite as .pla and BLIF files" in
  Cmd.v (Cmd.info "suite" ~doc ~exits) Term.(const run $ dir)

(* --- yield -------------------------------------------------------------------- *)

let yield_cmd =
  let run path rate spares trials seed =
    match read_spec path with
    | Error e ->
      prerr_endline e;
      1
    | Ok spec ->
      let pla = Cnfet.Pla.of_minimized ~dc:spec.Logic.Pla_io.dc_set spec.Logic.Pla_io.on_set in
      let rng = Util.Rng.create seed in
      let p = Fault.Yield.estimate rng ~trials ~spare_rows:spares pla ~defect_rate:rate in
      Printf.printf "defect rate %.2f%%, %d trials:\n" (100.0 *. rate) trials;
      Printf.printf "  baseline (fixed rows):    %.1f%%\n" (100.0 *. p.Fault.Yield.yield_baseline);
      Printf.printf "  remapped:                 %.1f%%\n" (100.0 *. p.Fault.Yield.yield_remap);
      Printf.printf "  remapped + %d spare rows:  %.1f%%\n" spares
        (100.0 *. p.Fault.Yield.yield_spares);
      0
  in
  let rate =
    let doc = "Per-device defect probability." in
    Arg.(value & opt float 0.01 & info [ "rate" ] ~docv:"P" ~doc)
  in
  let spares =
    let doc = "Spare AND-plane rows." in
    Arg.(value & opt int 2 & info [ "spares" ] ~docv:"N" ~doc)
  in
  let trials =
    let doc = "Monte-Carlo trials." in
    Arg.(value & opt int 300 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Random seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let doc = "Monte-Carlo functional yield under crosspoint defects" in
  Cmd.v (Cmd.info "yield" ~doc ~exits)
    Term.(const run $ pla_file $ rate $ spares $ trials $ seed)

(* --- bench-parallel ------------------------------------------------------ *)

let bench_parallel_cmd =
  let run jobs trials seed repeats run_out show_metrics out trace =
    if trials < 1 then begin
      prerr_endline "cnfet_tool: --trials must be at least 1";
      2
    end
    else begin
      with_tracing trace @@ fun () ->
      let jobs = match jobs with Some n -> max 1 n | None -> Runtime.Pool.default_jobs () in
      let metrics = Runtime.Metrics.global in
      let cache = Runtime.Cache.create () in
      Printf.printf "parallel batch-evaluation benchmark: %d job(s), %d yield trials, %d repeat(s)\n%!"
        jobs trials repeats;
      let reports, arun =
        Runtime.Bench.run_assess ~metrics ~cache ~seed ~trials ~repeats ~jobs ()
      in
      List.iter (fun r -> Format.printf "%a@." Runtime.Bench.pp_report r) reports;
      let run_failed =
        match run_out with None -> false | Some dir -> save_assess_run ~dir arun
      in
      Printf.printf "cache: %d hits / %d misses (hit rate %.1f%%)\n" (Runtime.Cache.hits cache)
        (Runtime.Cache.misses cache)
        (100.0 *. Runtime.Cache.hit_rate cache);
      let write_failed =
        match out with
        | None -> false
        | Some path -> (
          try
            Runtime.Bench.write_json ~cache ~metrics ~jobs ~path reports;
            Printf.printf "wrote %s\n" path;
            false
          with Sys_error msg ->
            Printf.eprintf "cnfet_tool: cannot write results: %s\n" msg;
            true)
      in
      if show_metrics then begin
        print_endline "--- metrics ---";
        print_string (Runtime.Metrics.dump metrics)
      end;
      if write_failed || run_failed then 1
      else if List.for_all (fun r -> r.Runtime.Bench.identical) reports then 0
      else begin
        prerr_endline "ERROR: parallel results diverged from sequential";
        1
      end
    end
  in
  let jobs =
    let doc = "Worker domains (default: recommended for this machine)." in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let trials =
    let doc = "Monte-Carlo yield trials (variation uses 8x this)." in
    Arg.(value & opt int 1000 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Random seed for the Monte-Carlo workloads." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry (counters, gauges, latency histograms) after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let out =
    let doc = "Write machine-readable results to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let doc = "Benchmark the parallel batch-evaluation engine against the sequential path" in
  Cmd.v
    (Cmd.info "bench-parallel" ~doc ~exits)
    Term.(
      const run $ jobs $ trials $ seed $ repeats_arg $ run_out_arg $ show_metrics $ out
      $ trace_arg)

(* --- bench-espresso ------------------------------------------------------ *)

let bench_espresso_cmd =
  let run quick seed repeats run_out show_metrics out trace =
    with_tracing trace @@ fun () ->
    let metrics = Runtime.Metrics.global in
    Printf.printf "espresso + cover-kernel benchmark%s (seed %d, %d repeat(s))\n%!"
      (if quick then " (quick)" else "")
      seed repeats;
    let reports, arun = Runtime.Bench_espresso.run_assess ~metrics ~quick ~seed ~repeats () in
    let run_failed =
      match run_out with None -> false | Some dir -> save_assess_run ~dir arun
    in
    List.iter (fun r -> Format.printf "%a@." Runtime.Bench_espresso.pp_report r) reports;
    Printf.printf "packed-vs-naive op speedup (geomean): %.2fx\n"
      (Runtime.Bench_espresso.geomean_speedup reports);
    Printf.printf "blocked-vs-scalar eval speedup (geomean): %.2fx\n"
      (Runtime.Bench_espresso.geomean_block_speedup reports);
    let hw_ok = Runtime.Bench_espresso.hw_crosscheck () in
    Printf.printf "switch-level cross-check (cmp2): %s\n"
      (if hw_ok then "ok" else "MISMATCH");
    let write_failed =
      try
        Runtime.Bench_espresso.write_json ~quick ~seed ~path:out reports;
        Printf.printf "wrote %s\n" out;
        false
      with Sys_error msg ->
        Printf.eprintf "cnfet_tool: cannot write results: %s\n" msg;
        true
    in
    if show_metrics then begin
      print_endline "--- metrics ---";
      print_string (Runtime.Metrics.dump metrics)
    end;
    if write_failed || run_failed then 1
    else if not hw_ok then begin
      prerr_endline "ERROR: switch-level simulation diverged from the compiled evaluator";
      1
    end
    else if not (List.for_all (fun r -> r.Runtime.Bench_espresso.identical) reports)
    then begin
      prerr_endline "ERROR: packed cover ops diverged from the naive reference";
      1
    end
    else if
      not (List.for_all (fun r -> r.Runtime.Bench_espresso.block_identical) reports)
    then begin
      prerr_endline "ERROR: bit-sliced eval diverged from the scalar evaluator";
      1
    end
    else 0
  in
  let quick =
    let doc = "Short measurement windows, Table-1 profiles only (CI smoke mode)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let seed =
    let doc = "Random seed for the synthetic workloads and eval minterms." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry (counters, gauges, latency histograms) after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let out =
    let doc = "Write machine-readable results to $(docv)." in
    Arg.(value & opt string "BENCH_espresso.json" & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let doc = "Benchmark the word-parallel cover kernel and espresso minimization" in
  Cmd.v
    (Cmd.info "bench-espresso" ~doc ~exits)
    Term.(const run $ quick $ seed $ repeats_arg $ run_out_arg $ show_metrics $ out $ trace_arg)

(* --- bench-ab ------------------------------------------------------------- *)

let bench_ab_cmd =
  let run path_a path_b min_floor floor_mult metrics_re seed out =
    (* A run argument is a run directory, a run.json, or a bare run id
       under the default _bench/runs working area. *)
    let resolve path =
      if Sys.file_exists path then path
      else Filename.concat Assess.Run.default_dir path
    in
    let load label path =
      match Assess.Run.load (resolve path) with
      | Ok r -> Ok r
      | Error e ->
        Printf.eprintf "cnfet_tool: run %s (%s): %s\n" label path
          (Assess.Run.error_to_string e);
        Error ()
    in
    match (load "A" path_a, load "B" path_b) with
    | Error (), _ | _, Error () -> 2
    | Ok a, Ok b ->
      if a.Assess.Run.profile <> b.Assess.Run.profile then
        Printf.eprintf
          "cnfet_tool: warning: comparing different profiles (%s vs %s)\n"
          a.Assess.Run.profile b.Assess.Run.profile;
      let filter =
        match metrics_re with
        | None -> fun _ -> true
        | Some re ->
          let re = Str.regexp re in
          fun name -> (try ignore (Str.search_forward re name 0); true with Not_found -> false)
      in
      let report = Assess.Ab.compare ?min_floor ?floor_mult ~seed ~filter a b in
      Format.printf "%a" Assess.Ab.pp report;
      let write_failed =
        match out with
        | None -> false
        | Some path -> (
          try
            let oc = open_out path in
            output_string oc (Assess.Ab.to_json report);
            close_out oc;
            Printf.printf "report written to %s\n" path;
            false
          with Sys_error msg ->
            Printf.eprintf "cnfet_tool: cannot write report: %s\n" msg;
            true)
      in
      if List.for_all (fun (m : Assess.Ab.metric_result) -> Result.is_error m.Assess.Ab.result)
           report.Assess.Ab.metrics
         && report.Assess.Ab.metrics <> []
      then begin
        (* every shared metric degenerate — a comparison that can never
           fail is not a gate, so fail loudly instead of rubber-stamping *)
        Printf.eprintf "bench-ab: FAIL - no metric could be compared\n";
        1
      end
      else if Assess.Ab.has_regression report then begin
        Printf.eprintf "bench-ab: FAIL - regressed beyond the noise floor: %s\n"
          (String.concat ", " (Assess.Ab.regressed report));
        1
      end
      else if write_failed then 1
      else 0
  in
  let path_a =
    let doc = "Reference run: artifact directory, run.json path, or a run id under _bench/runs." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RUN_A" ~doc)
  in
  let path_b =
    let doc = "Candidate run, same forms as $(docv)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RUN_B" ~doc)
  in
  let min_floor =
    let doc =
      "Minimum relative noise floor (e.g. 0.05 = 5%); per-metric floors never drop \
       below it however tight the repeat spread looks."
    in
    Arg.(value & opt (some float) None & info [ "min-floor" ] ~docv:"F" ~doc)
  in
  let floor_mult =
    let doc = "Noise-floor multiplier applied to the repeat spread (default 3.0)." in
    Arg.(value & opt (some float) None & info [ "floor-mult" ] ~docv:"M" ~doc)
  in
  let metrics_re =
    let doc = "Only compare metrics whose name matches the regexp $(docv) (Str syntax)." in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"RE" ~doc)
  in
  let seed =
    let doc = "Bootstrap-resampling seed (fixed = reproducible verdicts)." in
    Arg.(value & opt int 9001 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let out =
    let doc = "Write the comparison report as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let doc =
    "Compare two benchmark runs metric-by-metric; exit non-zero iff any metric \
     regressed beyond the noise floor"
  in
  Cmd.v
    (Cmd.info "bench-ab" ~doc ~exits)
    Term.(const run $ path_a $ path_b $ min_floor $ floor_mult $ metrics_re $ seed $ out)

(* --- sweep ------------------------------------------------------------------ *)

let sweep_cmd =
  let run quick profiles seed jobs window checkpoint out front_out det_out strict repeats
      run_out show_metrics trace =
    with_tracing trace @@ fun () ->
    let base = if quick then Sweep.Drive.quick else Sweep.Drive.default in
    let config =
      {
        base with
        Sweep.Drive.profiles = Option.value profiles ~default:base.Sweep.Drive.profiles;
        seed;
        jobs = (match jobs with Some j -> max 1 j | None -> base.Sweep.Drive.jobs);
        window = Option.value window ~default:base.Sweep.Drive.window;
        checkpoint;
      }
    in
    let metrics = Runtime.Metrics.create () in
    let repeats = max 1 repeats in
    let t0 = Unix.gettimeofday () in
    let last = ref None in
    let per_repeat =
      List.init repeats (fun k ->
          (* A checkpoint resumes (or seeds) only the first repeat: later
             repeats re-measure the full population. *)
          let config = if k = 0 then config else { config with checkpoint = None } in
          let r = Sweep.Drive.run ~metrics config in
          last := Some r;
          Sweep.Report.to_metrics r)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let r = Option.get !last in
    print_string (Sweep.Report.summary r);
    (match out with
    | Some path ->
      Sweep.Report.write ~path (Sweep.Report.bench_json r);
      Printf.printf "bench view written to %s\n" path
    | None -> ());
    (match front_out with
    | Some path ->
      Sweep.Report.write ~path (Sweep.Report.front_json r);
      Printf.printf "fronts written to %s\n" path
    | None -> ());
    (match det_out with
    | Some path ->
      Sweep.Report.write ~path (Sweep.Report.deterministic_json r);
      Printf.printf "population written to %s\n" path
    | None -> ());
    if show_metrics then print_string (Runtime.Metrics.dump metrics);
    let profile = if quick then "sweep-quick" else "sweep" in
    let arun =
      Assess.Run.create ~profile ~seed ~wall_s
        ~meta:
          [
            ("jobs", string_of_int config.Sweep.Drive.jobs);
            ("profiles", string_of_int config.Sweep.Drive.profiles);
            ("quick", string_of_bool quick);
            ("repeats", string_of_int repeats);
          ]
        (Sweep.Report.merge_metrics per_repeat)
    in
    let save_failed =
      match run_out with None -> false | Some dir -> save_assess_run ~dir arun
    in
    let failed = r.Sweep.Drive.r_failures <> [] in
    if failed then
      Printf.eprintf "cnfet_tool sweep: %d item(s) failed\n"
        (List.length r.Sweep.Drive.r_failures);
    if save_failed || (strict && failed) then 1 else 0
  in
  let quick =
    let doc = "Quick population: 8 profiles over the small space." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let profiles =
    let doc = "Population size (default 1024, or 8 with $(b,--quick))." in
    Arg.(value & opt (some int) None & info [ "profiles" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Sweep seed; every per-item stream derives from it." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let jobs =
    let doc = "Worker domains (default: cores - 1, or 2 with $(b,--quick))." in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let window =
    let doc = "Max in-flight items (default 4 x jobs)." in
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"N" ~doc)
  in
  let checkpoint =
    let doc =
      "JSONL progress file: completed items are appended as they finish, and a \
       rerun with the same sweep parameters resumes from it instead of \
       recomputing."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let out =
    let doc = "Write the full measurement view (population + fronts + per-stage \
               latency percentiles) as JSON to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let front_out =
    let doc =
      "Write the deterministic Pareto-front view to $(docv) — byte-identical \
       across machines and $(b,--jobs) for a fixed seed (the golden-regression \
       artifact)."
    in
    Arg.(value & opt (some string) None & info [ "front-out" ] ~docv:"FILE.json" ~doc)
  in
  let det_out =
    let doc =
      "Write the deterministic population view (every item and failure, no \
       latencies) to $(docv) — byte-identical across $(b,--jobs) and \
       $(b,--window) for a fixed seed."
    in
    Arg.(value & opt (some string) None & info [ "det-out" ] ~docv:"FILE.json" ~doc)
  in
  let strict =
    let doc = "Exit non-zero if any item failed." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry (stage histograms, pool gauges) after the sweep." in
    Arg.(value & flag & info [ "show-metrics" ] ~doc)
  in
  let doc =
    "Population-scale silicon sweep: fan synthetic profiles through minimize, \
     phase, fold, map, place, route, timing and yield on the domain pool; \
     report per-stage latencies and area/frequency/yield Pareto fronts"
  in
  Cmd.v (Cmd.info "sweep" ~doc ~exits)
    Term.(
      const run $ quick $ profiles $ seed $ jobs $ window $ checkpoint $ out $ front_out
      $ det_out $ strict $ repeats_arg $ run_out_arg $ show_metrics $ trace_arg)

(* --- classify ------------------------------------------------------------- *)

let classify_cmd =
  let run quick seed jobs window samples trials spares rates sigmas checkpoint out det_out
      strict repeats run_out show_metrics trace =
    with_tracing trace @@ fun () ->
    let base = if quick then Classify.Envelope.quick else Classify.Envelope.default in
    let config =
      {
        base with
        Classify.Envelope.seed;
        jobs = (match jobs with Some j -> max 1 j | None -> base.Classify.Envelope.jobs);
        window = Option.value window ~default:base.Classify.Envelope.window;
        samples = Option.value samples ~default:base.Classify.Envelope.samples;
        trials = Option.value trials ~default:base.Classify.Envelope.trials;
        spare_rows = Option.value spares ~default:base.Classify.Envelope.spare_rows;
        rates = Option.value rates ~default:base.Classify.Envelope.rates;
        sigmas = Option.value sigmas ~default:base.Classify.Envelope.sigmas;
        checkpoint;
      }
    in
    let metrics = Runtime.Metrics.create () in
    let repeats = max 1 repeats in
    let t0 = Unix.gettimeofday () in
    let per_repeat =
      List.init repeats (fun k ->
          (* A checkpoint resumes (or seeds) only the first repeat: later
             repeats re-measure the full envelope. *)
          let config = if k = 0 then config else { config with checkpoint = None } in
          Classify.Envelope.run ~metrics config)
    in
    let wall_s = Unix.gettimeofday () -. t0 in
    let r = List.nth per_repeat (repeats - 1) in
    print_string (Classify.Envelope.summary r);
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Assess.Json.to_string ~indent:2 (Classify.Envelope.json r));
      output_char oc '\n';
      close_out oc;
      Printf.printf "envelope written to %s\n" path
    | None -> ());
    (match det_out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Assess.Json.to_string ~indent:2 (Classify.Envelope.deterministic_json r));
      output_char oc '\n';
      close_out oc;
      Printf.printf "deterministic view written to %s\n" path
    | None -> ());
    if show_metrics then print_string (Runtime.Metrics.dump metrics);
    let profile = if quick then "classify-quick" else "classify" in
    let faulted r =
      List.filter (fun p -> p.Classify.Envelope.pt_rate > 0.0) r.Classify.Envelope.ep_points
    in
    let series f = Array.of_list (List.map f per_repeat) in
    let worst f r =
      List.fold_left (fun m p -> min m (f p)) 1.0 (faulted r)
    in
    let recovery_p90 r =
      match List.assoc_opt 90. (Classify.Envelope.recovery_percentiles r) with
      | Some v -> v
      | None -> 0.0
    in
    let arun =
      Assess.Run.create ~profile ~seed ~wall_s
        ~meta:
          [
            ("jobs", string_of_int config.Classify.Envelope.jobs);
            ("samples", string_of_int config.Classify.Envelope.samples);
            ("trials", string_of_int config.Classify.Envelope.trials);
            ("quick", string_of_bool quick);
            ("repeats", string_of_int repeats);
          ]
        [
          Assess.Run.metric ~units:"frac" "classify.acc_clean"
            (series (fun r -> r.Classify.Envelope.ep_acc_clean));
          Assess.Run.metric ~units:"frac" "classify.acc_pre_worst"
            (series (worst (fun p -> p.Classify.Envelope.pt_acc_pre)));
          Assess.Run.metric ~units:"frac" "classify.acc_post_worst"
            (series (worst (fun p -> p.Classify.Envelope.pt_acc_post)));
          Assess.Run.metric ~units:"s" ~higher_is_better:false "classify.recovery_p90_s"
            (series recovery_p90);
          Assess.Run.metric ~units:"s" ~higher_is_better:false "classify.wall_s"
            (series (fun r -> r.Classify.Envelope.ep_wall_s));
        ]
    in
    let save_failed =
      match run_out with None -> false | Some dir -> save_assess_run ~dir arun
    in
    let failed = r.Classify.Envelope.ep_failures <> [] in
    if failed then
      Printf.eprintf "cnfet_tool classify: %d grid point(s) failed\n"
        (List.length r.Classify.Envelope.ep_failures);
    if save_failed || (strict && failed) then 1 else 0
  in
  let quick =
    let doc = "Quick envelope: 128 samples x 4 trials over a 3 x 2 grid." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let seed =
    let doc = "Envelope seed; samples, D2D draws and defect maps all derive from it." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let jobs =
    let doc = "Worker domains (default: cores - 1, or 2 with $(b,--quick))." in
    Arg.(value & opt (some int) None & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let window =
    let doc = "Max in-flight grid points (default 4 x jobs)." in
    Arg.(value & opt (some int) None & info [ "window" ] ~docv:"N" ~doc)
  in
  let samples =
    let doc = "Evaluation population size per grid point." in
    Arg.(value & opt (some int) None & info [ "samples" ] ~docv:"N" ~doc)
  in
  let trials =
    let doc = "Defect-map draws per grid point." in
    Arg.(value & opt (some int) None & info [ "trials" ] ~docv:"N" ~doc)
  in
  let spares =
    let doc = "Spare physical rows available to the repair flow." in
    Arg.(value & opt (some int) None & info [ "spares" ] ~docv:"N" ~doc)
  in
  let rates =
    let doc = "Comma-separated crosspoint fault rates (grid rows), ascending." in
    Arg.(value & opt (some (list float)) None & info [ "rates" ] ~docv:"R,R,..." ~doc)
  in
  let sigmas =
    let doc = "Comma-separated D2D weight-perturbation sigmas (grid columns)." in
    Arg.(value & opt (some (list float)) None & info [ "sigmas" ] ~docv:"S,S,..." ~doc)
  in
  let checkpoint =
    let doc =
      "JSONL progress file: completed grid points are appended as they finish, \
       and a rerun with the same envelope parameters resumes from it."
    in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)
  in
  let out =
    let doc = "Write the full envelope (BENCH_classify.json) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let det_out =
    let doc =
      "Write the deterministic envelope view (accuracies, counters, confusion — \
       no latencies) to $(docv) — byte-identical across $(b,--jobs) and \
       $(b,--window) for a fixed seed."
    in
    Arg.(value & opt (some string) None & info [ "det-out" ] ~docv:"FILE.json" ~doc)
  in
  let strict =
    let doc = "Exit non-zero if any grid point failed." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry (stage histograms, pool gauges) after the run." in
    Arg.(value & flag & info [ "show-metrics" ] ~doc)
  in
  let doc =
    "Degradation envelope for the crossbar classifier: accuracy over a fault-rate \
     x noise-sigma grid, before and after the ATPG-detect / spare-row-repair / \
     re-verify loop"
  in
  Cmd.v (Cmd.info "classify" ~doc ~exits)
    Term.(
      const run $ quick $ seed $ jobs $ window $ samples $ trials $ spares $ rates $ sigmas
      $ checkpoint $ out $ det_out $ strict $ repeats_arg $ run_out_arg $ show_metrics
      $ trace_arg)

(* --- fuzz ---------------------------------------------------------------- *)

let fuzz_cmd =
  let run seed budget filter corpus jobs list_only show_metrics trace =
    if list_only then begin
      List.iter
        (fun p -> Printf.printf "%-36s %d cases\n" (Prop.Runner.name p) (Prop.Runner.count p))
        (Prop.Fuzz.select ?filter Prop.Props.all);
      0
    end
    else begin
      with_tracing trace @@ fun () ->
      let metrics = Runtime.Metrics.global in
      let config =
        { Prop.Fuzz.seed; budget_ms = budget; filter; corpus_dir = corpus; jobs }
      in
      Printf.printf "property fuzz (seed %d%s%s)\n%!" seed
        (match budget with Some ms -> Printf.sprintf ", budget %d ms" ms | None -> "")
        (match filter with Some re -> Printf.sprintf ", filter %s" re | None -> "");
      let report = Prop.Fuzz.run ~metrics config in
      print_string (Prop.Fuzz.render report);
      if show_metrics then begin
        print_endline "--- metrics ---";
        print_string (Runtime.Metrics.dump metrics)
      end;
      if Prop.Fuzz.failures report = 0 then 0 else 1
    end
  in
  let seed =
    let doc = "Master seed; every property derives its own deterministic case-seed chain from it." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let budget =
    let doc =
      "Wall-clock budget (milliseconds) for fresh generation; checked between properties, so \
       corpus replay always completes and a partial run is a prefix of the full one."
    in
    Arg.(value & opt (some int) None & info [ "budget" ] ~docv:"MS" ~doc)
  in
  let filter =
    let doc = "Only run properties whose name matches the regexp $(docv) (Str syntax, searched anywhere in the name)." in
    Arg.(value & opt (some string) None & info [ "filter" ] ~docv:"RE" ~doc)
  in
  let corpus =
    let doc = "Counterexample corpus directory: replayed before fresh generation, written on new failures." in
    Arg.(value & opt string Prop.Corpus.default_dir & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let jobs =
    let doc = "Run properties on $(docv) worker domains (results are identical at any job count)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)
  in
  let list_only =
    let doc = "List the (filtered) properties and their case counts, then exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry (counters, gauges, latency histograms) after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let doc = "Property-based fuzzing with shrinking and a persistent counterexample corpus" in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~exits)
    Term.(const run $ seed $ budget $ filter $ corpus $ jobs $ list_only $ show_metrics $ trace_arg)

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd =
  let run seed max_rounds spares jobs out show_metrics trace =
    with_tracing trace @@ fun () ->
    Printf.printf "chaos run (seed %d, %d rounds)\n%!" seed max_rounds;
    let report = Runtime.Chaos.run ~seed ~max_rounds ~spare_rows:spares ?jobs () in
    print_string (Runtime.Chaos.summary report);
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Assess.Json.to_string ~indent:2 (Runtime.Chaos.to_json report) ^ "\n");
      close_out oc;
      Printf.printf "report written to %s\n" path);
    if show_metrics then begin
      print_endline "--- metrics ---";
      print_string (Runtime.Metrics.dump Runtime.Metrics.global)
    end;
    (* The self-healing gate: the run must have injected something, every
       detectable injected fault must end up repaired (or proven
       unrepairable within the spare budget), and the batches must have
       stayed bit-correct. *)
    if report.Runtime.Chaos.injected_total = 0 then begin
      prerr_endline "chaos: FAIL - the run injected no faults";
      1
    end
    else if Runtime.Chaos.detected_unrepaired report > 0 then begin
      Printf.eprintf "chaos: FAIL - %d detected faults left unrepaired\n"
        (Runtime.Chaos.detected_unrepaired report);
      1
    end
    else if report.Runtime.Chaos.miscompares > 0 then begin
      Printf.eprintf "chaos: FAIL - %d batch evaluations differed from the oracle\n"
        report.Runtime.Chaos.miscompares;
      1
    end
    else 0
  in
  let seed =
    let doc = "Fault-plan seed: the injected fault set is a pure function of it." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let max_rounds =
    let doc =
      "Number of chaos rounds. With $(b,--seed) and $(b,--spares) it fixes every count in the \
       report."
    in
    Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let spares =
    let doc = "Spare physical rows available to the repair flow." in
    Arg.(value & opt int 2 & info [ "spares" ] ~docv:"N" ~doc)
  in
  let jobs =
    let doc = "Worker-pool size (default: cores - 1)." in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let out =
    let doc = "Write the JSON chaos report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry (counters, gauges, latency histograms) after the run." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let doc = "Inject runtime faults and prove the detect/repair/re-verify loop heals them" in
  Cmd.v
    (Cmd.info "chaos" ~doc ~exits)
    Term.(const run $ seed $ max_rounds $ spares $ jobs $ out $ show_metrics $ trace_arg)

(* --- serve / loadgen ------------------------------------------------------ *)

let serve_cmd =
  let run sock pipe jobs queue_limit max_inflight max_tenants tenant_quota chunk max_batch
      show_metrics trace =
    with_tracing trace @@ fun () ->
    let cfg =
      {
        Serve.Server.default_config with
        jobs;
        queue_limit;
        max_inflight;
        max_tenants;
        tenant_quota;
        chunk_vectors = chunk;
        max_batch;
      }
    in
    let server = Serve.Server.create ~metrics:Runtime.Metrics.global cfg in
    let stop_signal _ = Serve.Server.request_stop server in
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal)
     with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal)
     with Invalid_argument _ -> ());
    if pipe then begin
      (* stdin/stdout ARE the wire; all chatter goes to stderr *)
      Printf.eprintf "serve: single session on stdin/stdout (inflight %d, queue %d)\n%!"
        max_inflight queue_limit;
      Serve.Server.serve_session server stdin stdout
    end
    else begin
      Printf.printf "serve: listening on %s (inflight %d, queue %d, %d tenants x %d programs)\n%!"
        sock max_inflight queue_limit max_tenants tenant_quota;
      Serve.Server.run_unix server ~sock_path:sock
    end;
    Serve.Server.stop server;
    let s = Serve.Server.stats server in
    let err = if pipe then Printf.eprintf else Printf.printf in
    err
      "serve: %d sessions, %d requests (%d ok, %d errors), %d shed, %d vectors, %d session errors\n%!"
      s.Serve.Server.sessions_total s.Serve.Server.requests s.Serve.Server.responses_ok
      s.Serve.Server.request_errors
      (Serve.Admission.shed_total (Serve.Server.admission server))
      s.Serve.Server.vectors_evaluated s.Serve.Server.session_errors;
    if show_metrics then begin
      let oc = if pipe then stderr else stdout in
      output_string oc "--- metrics ---\n";
      output_string oc (Runtime.Metrics.dump Runtime.Metrics.global);
      flush oc
    end;
    0
  in
  let sock =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(value & opt string "cnfet-serve.sock" & info [ "sock" ] ~docv:"PATH" ~doc)
  in
  let pipe =
    let doc =
      "Serve exactly one session on stdin/stdout instead of listening on a socket \
       (for tests, CI and inetd-style supervision)."
    in
    Arg.(value & flag & info [ "pipe" ] ~doc)
  in
  let jobs =
    let doc = "Evaluation-pool worker domains (default: cores - 1)." in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let queue_limit =
    let doc = "Admission wait-queue bound; beyond it requests are shed with Overloaded." in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let max_inflight =
    let doc = "Requests allowed to compile/evaluate concurrently." in
    Arg.(value & opt int 8 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let max_tenants =
    let doc = "Tenant caches kept before whole-tenant LRU eviction." in
    Arg.(value & opt int 16 & info [ "max-tenants" ] ~docv:"N" ~doc)
  in
  let tenant_quota =
    let doc = "Compiled programs each tenant may cache (per-entry LRU within)." in
    Arg.(value & opt int 32 & info [ "tenant-quota" ] ~docv:"N" ~doc)
  in
  let chunk =
    let doc = "Result vectors per streamed chunk frame." in
    Arg.(value & opt int 512 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let max_batch =
    let doc = "Input vectors accepted per request; more is Batch_too_large." in
    Arg.(value & opt int 65536 & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let show_metrics =
    let doc = "Dump the metrics registry after the daemon exits." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let doc = "Run the PLA evaluation service daemon" in
  Cmd.v
    (Cmd.info "serve" ~doc ~exits)
    Term.(
      const run $ sock $ pipe $ jobs $ queue_limit $ max_inflight $ max_tenants $ tenant_quota
      $ chunk $ max_batch $ show_metrics $ trace_arg)

let loadgen_cmd =
  let run sock concurrency tenants requests batch seed classify_share sweep out run_out trace
      =
    with_tracing trace @@ fun () ->
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let connect () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX sock)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      let out_fd = Unix.dup fd in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr out_fd in
      ( ic,
        oc,
        fun () ->
          close_out_noerr oc;
          close_in_noerr ic )
    in
    let run_point concurrency =
      let cfg =
        {
          Serve.Loadgen.connect;
          concurrency;
          tenants;
          requests_per_worker = requests;
          batch;
          seed;
          classify_share;
        }
      in
      let r = Serve.Loadgen.run ~label:(Printf.sprintf "c%d" concurrency) cfg in
      Printf.printf
        "c=%-3d  %6d req  %6.1f req/s  shed %5.1f%%  err %d  miscmp %d  p50 %.1fms  p95 %.1fms  p99 %.1fms\n%!"
        concurrency r.Serve.Loadgen.requests r.Serve.Loadgen.throughput_rps
        (100. *. r.Serve.Loadgen.shed_rate)
        r.Serve.Loadgen.errors r.Serve.Loadgen.miscompares
        (1e3 *. r.Serve.Loadgen.p50_s) (1e3 *. r.Serve.Loadgen.p95_s)
        (1e3 *. r.Serve.Loadgen.p99_s);
      r
    in
    let points =
      match sweep with
      | [] -> [ run_point concurrency ]
      | cs -> List.map run_point cs
    in
    let json =
      match points with
      | [ r ] -> Serve.Loadgen.to_json r
      | rs -> Serve.Loadgen.sweep_to_json rs
    in
    (match out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc json;
      close_out oc;
      Printf.printf "report written to %s\n" path);
    let run_failed =
      match run_out with
      | None -> false
      | Some dir -> save_assess_run ~dir (Serve.Loadgen.to_run ~seed points)
    in
    let total f = List.fold_left (fun acc r -> acc + f r) 0 points in
    let miscompares = total (fun r -> r.Serve.Loadgen.miscompares) in
    let errors = total (fun r -> r.Serve.Loadgen.errors) in
    let completed = total (fun r -> r.Serve.Loadgen.completed) in
    if miscompares > 0 then begin
      Printf.eprintf "loadgen: FAIL - %d served outputs differed from direct Pla.eval\n" miscompares;
      1
    end
    else if errors > 0 then begin
      Printf.eprintf "loadgen: FAIL - %d requests errored\n" errors;
      1
    end
    else if completed = 0 then begin
      Printf.eprintf "loadgen: FAIL - nothing completed (all shed or server down?)\n";
      1
    end
    else if run_failed then 1
    else 0
  in
  let sock =
    let doc = "Unix-domain socket of the serve daemon." in
    Arg.(value & opt string "cnfet-serve.sock" & info [ "sock" ] ~docv:"PATH" ~doc)
  in
  let concurrency =
    let doc = "Closed-loop worker connections." in
    Arg.(value & opt int 8 & info [ "c"; "concurrency" ] ~docv:"N" ~doc)
  in
  let tenants =
    let doc = "Distinct tenant identities in the mix." in
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~doc)
  in
  let requests =
    let doc = "Requests per worker." in
    Arg.(value & opt int 50 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let batch =
    let doc = "Input vectors per request." in
    Arg.(value & opt int 256 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let seed =
    let doc = "Workload seed; fixed seed = reproducible request sequence." in
    Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let classify_share =
    let doc =
      "Fraction of requests sent as classification against the server's \
       $(b,default) crossbar model, each reply label-checked against the \
       reference classifier (0 = eval-only traffic)."
    in
    Arg.(value & opt float 0.0 & info [ "classify" ] ~docv:"SHARE" ~doc)
  in
  let sweep =
    let doc =
      "Comma-separated concurrency sweep (e.g. 1,2,4,8,16); overrides $(b,--concurrency) and \
       emits a sweep JSON with the saturation point promoted."
    in
    Arg.(value & opt (list int) [] & info [ "sweep" ] ~docv:"N,N,..." ~doc)
  in
  let out =
    let doc = "Write BENCH_serve.json to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE.json" ~doc)
  in
  let doc = "Drive a running serve daemon closed-loop and verify every bit against Pla.eval" in
  Cmd.v
    (Cmd.info "loadgen" ~doc ~exits)
    Term.(
      const run $ sock $ concurrency $ tenants $ requests $ batch $ seed $ classify_share
      $ sweep $ out $ run_out_arg $ trace_arg)

let () =
  let doc = "programmable logic built from ambipolar carbon-nanotube FETs" in
  let info = Cmd.info "cnfet_tool" ~version:"1.0.0" ~doc ~exits in
  exit (Cmd.eval' (Cmd.group info [ minimize_cmd; area_cmd; simulate_cmd; phase_cmd; factor_cmd; map_cmd; fpga_cmd; yield_cmd; suite_cmd; bench_parallel_cmd; bench_espresso_cmd; bench_ab_cmd; sweep_cmd; classify_cmd; fuzz_cmd; chaos_cmd; serve_cmd; loadgen_cmd ]))
