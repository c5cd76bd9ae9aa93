(* Tests for the assess library: robust statistics (median/MAD
   fixtures, bootstrap CI containment, degenerate inputs as typed
   errors), run artifact roundtrips through a real temp directory, A/B
   verdict classification (A/A within noise, planted regression named),
   and an in-process A/A determinism check over the quick espresso
   profile. *)

module Stats = Assess.Stats
module Run = Assess.Run
module Ab = Assess.Ab
module Json = Assess.Json

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-12)
let checks = Alcotest.check Alcotest.string

let get_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Stats.error_to_string e)

let run_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Run.error_to_string e)

(* --- Stats fixtures ------------------------------------------------------- *)

let test_median_fixtures () =
  checkf "odd count" 3.0 (get_ok "median" (Stats.median [| 5.0; 1.0; 3.0 |]));
  checkf "even count averages" 2.5 (get_ok "median" (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]));
  checkf "single sample" 7.0 (get_ok "median" (Stats.median [| 7.0 |]));
  checkf "unsorted ties" 2.0 (get_ok "median" (Stats.median [| 2.0; 9.0; 2.0 |]))

let test_mad_fixtures () =
  (* median 3, |x - 3| = [2;1;0;1;2], mad = 1 *)
  checkf "symmetric" 1.0 (get_ok "mad" (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 5.0 |]));
  checkf "all equal is zero" 0.0 (get_ok "mad" (Stats.mad [| 4.0; 4.0; 4.0 |]));
  (* median 10, deviations [9;0;0;90], sorted [0;0;9;90], mad = 4.5 *)
  checkf "outlier resistant" 4.5 (get_ok "mad" (Stats.mad [| 1.0; 10.0; 10.0; 100.0 |]))

let test_rel_spread () =
  (* mad 1 / median 3 *)
  checkf "mad over median" (1.0 /. 3.0)
    (get_ok "rel_spread" (Stats.rel_spread [| 1.0; 2.0; 3.0; 4.0; 5.0 |]))

(* --- Degenerate inputs: typed errors, never NaN --------------------------- *)

let test_degenerate_inputs () =
  let is_not_enough = function Error (Stats.Not_enough_samples _) -> true | _ -> false in
  let is_degenerate = function Error (Stats.Degenerate_samples _) -> true | _ -> false in
  let is_non_finite = function Error (Stats.Non_finite _) -> true | _ -> false in
  checkb "median of empty" true (is_not_enough (Stats.median [||]));
  checkb "mad of empty" true (is_not_enough (Stats.mad [||]));
  checkb "mad of one sample" true (is_not_enough (Stats.mad [| 1.0 |]));
  checkb "rel_spread of one sample" true (is_not_enough (Stats.rel_spread [| 1.0 |]));
  checkb "rel_spread of all-equal" true (is_degenerate (Stats.rel_spread [| 2.0; 2.0; 2.0 |]));
  checkb "rel_spread of zero median" true
    (is_degenerate (Stats.rel_spread [| -1.0; 0.0; 1.0 |]));
  checkb "bootstrap of one sample" true (is_not_enough (Stats.bootstrap_ci [| 1.0 |]));
  checkb "median of NaN" true (is_non_finite (Stats.median [| 1.0; Float.nan |]));
  checkb "median of infinity" true (is_non_finite (Stats.median [| Float.infinity |]));
  checkb "compare empty a" true
    (is_not_enough (Stats.compare_samples ~higher_is_better:true ~floor:0.05 [||] [| 1.0 |]));
  checkb "compare zero-median a" true
    (match Stats.compare_samples ~higher_is_better:true ~floor:0.05 [| 0.0 |] [| 1.0 |] with
    | Error _ -> true
    | Ok _ -> false)

(* --- Bootstrap CI --------------------------------------------------------- *)

let test_bootstrap_ci_contains_median () =
  (* Deterministic synthetic series around 100 with ~2% jitter. *)
  let rng = Util.Rng.create 42 in
  let xs = Array.init 25 (fun _ -> 100.0 +. Util.Rng.float rng 4.0 -. 2.0) in
  let m = get_ok "median" (Stats.median xs) in
  let ci = get_ok "bootstrap" (Stats.bootstrap_ci ~seed:9001 xs) in
  checkb "lo <= hi" true (ci.Stats.lo <= ci.Stats.hi);
  checkb "CI contains sample median" true (ci.Stats.lo <= m && m <= ci.Stats.hi);
  checkb "CI is tight for tight data" true (ci.Stats.hi -. ci.Stats.lo < 4.0);
  (* Same seed, same interval: the estimator is deterministic. *)
  let ci' = get_ok "bootstrap again" (Stats.bootstrap_ci ~seed:9001 xs) in
  checkf "lo reproducible" ci.Stats.lo ci'.Stats.lo;
  checkf "hi reproducible" ci.Stats.hi ci'.Stats.hi

let test_bootstrap_ci_pinned () =
  (* Exact bounds on a fixed series, so a change to the resampling or
     to the rank rule that picks lo/hi from the sorted medians shows. *)
  let xs = [| 12.5; 9.75; 11.0; 10.25; 13.5; 8.0; 10.75; 12.0; 9.5; 11.25; 14.0; 10.0 |] in
  List.iter
    (fun (level, lo, hi) ->
      let ci = get_ok "bootstrap" (Stats.bootstrap_ci ~seed:9001 ~level xs) in
      checkf (Printf.sprintf "lo at %g" level) lo ci.Stats.lo;
      checkf (Printf.sprintf "hi at %g" level) hi ci.Stats.hi)
    [ (0.8, 10.125, 11.625); (0.9, 10.0, 12.0); (0.95, 9.875, 12.25); (0.99, 9.75, 13.0) ]

(* --- Verdicts ------------------------------------------------------------- *)

let test_aa_identical_within_noise () =
  let xs = [| 10.0; 10.2; 9.9; 10.1; 10.05 |] in
  let c =
    get_ok "compare"
      (Stats.compare_samples ~higher_is_better:true ~floor:0.05 xs (Array.copy xs))
  in
  checks "A/A verdict" "within-noise" (Stats.verdict_to_string c.Stats.verdict);
  checkb "ratio near 1" true (Float.abs (c.Stats.ratio -. 1.0) < 1e-9)

let test_planted_regression_detected () =
  let a = [| 10.0; 10.1; 9.95; 10.05; 10.0 |] in
  (* 30% slower on a higher-is-better metric: clear regression. *)
  let b = Array.map (fun x -> x *. 0.7) a in
  let c =
    get_ok "compare" (Stats.compare_samples ~higher_is_better:true ~floor:0.05 a b)
  in
  checks "planted regression" "regressed" (Stats.verdict_to_string c.Stats.verdict);
  (* Same 30% drop on a lower-is-better metric is an improvement. *)
  let c' =
    get_ok "compare" (Stats.compare_samples ~higher_is_better:false ~floor:0.05 a b)
  in
  checks "lower-is-better orientation" "improved" (Stats.verdict_to_string c'.Stats.verdict)

let test_single_sample_point_fallback () =
  let c =
    get_ok "compare" (Stats.compare_samples ~higher_is_better:true ~floor:0.05 [| 10.0 |] [| 6.0 |])
  in
  checkb "no CI with single samples" true (c.Stats.ci = None);
  checks "point-estimate regression" "regressed" (Stats.verdict_to_string c.Stats.verdict)

(* --- Run artifact roundtrip ----------------------------------------------- *)

let sample_run () =
  Run.create ~run_id:"espresso-quick-20260809T000000Z-s2008-cafe42" ~git_rev:"deadbeef"
    ~host:"testhost" ~created_at:"2026-08-09T00:00:00Z"
    ~meta:[ ("bench", "espresso"); ("quick", "true") ]
    ~profile:"espresso-quick" ~seed:2008 ~wall_s:1.25
    [
      Run.metric ~units:"x" "geomean/op_speedup" [| 1.84; 1.86; 1.85 |];
      Run.metric ~units:"s" ~higher_is_better:false "adder4/minimize_s" [| 0.0123; 0.0125 |];
      (* exercise awkward floats: tiny, huge, negative, integral *)
      Run.metric "edge/floats" [| 1e-300; 1.7e15; -0.0; 3.0 |];
    ]

let test_run_json_roundtrip () =
  let r = sample_run () in
  let r' = run_ok "of_json" (Run.of_json (Run.to_json r)) in
  checkb "bit-identical roundtrip" true (r = r');
  (* And a second encode is byte-identical: stable output. *)
  checks "stable encoding" (Run.to_json r) (Run.to_json r')

let test_run_save_load () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "assess_test_runs" in
  let r = sample_run () in
  let run_dir = run_ok "save" (Run.save ~dir r) in
  let by_dir = run_ok "load dir" (Run.load run_dir) in
  let by_file = run_ok "load file" (Run.load (Filename.concat run_dir "run.json")) in
  checkb "load by dir" true (r = by_dir);
  checkb "load by file" true (r = by_file);
  checkb "index.tsv written" true (Sys.file_exists (Filename.concat dir "index.tsv"))

let test_run_parse_errors_are_typed () =
  let doc = String.trim (Run.to_json (sample_run ())) in
  (* Every strict prefix (up to the final closing brace) must fail with a
     typed error, never raise. *)
  let n = String.length doc in
  for cut = 0 to n - 1 do
    match Run.of_json (String.sub doc 0 cut) with
    | Ok _ -> Alcotest.failf "truncation at %d parsed" cut
    | Error (Run.Parse _ | Run.Schema _) -> ()
    | Error (Run.Io _) -> Alcotest.failf "truncation at %d gave Io" cut
  done;
  (* Well-formed JSON of the wrong shape is a schema error. *)
  (match Run.of_json "{\"schema_version\":1}" with
  | Error (Run.Schema _) -> ()
  | _ -> Alcotest.fail "missing fields accepted");
  match Run.of_json "{\"schema_version\":99}" with
  | Error (Run.Schema _) -> ()
  | _ -> Alcotest.fail "future schema version accepted"

let test_json_number_fidelity () =
  let check_roundtrip f =
    match Json.parse (Json.to_string (Json.Number f)) with
    | Ok (Json.Number f') ->
      checkb (Printf.sprintf "roundtrip %h" f) true (Int64.bits_of_float f = Int64.bits_of_float f')
    | _ -> Alcotest.failf "number %h did not roundtrip" f
  in
  List.iter check_roundtrip
    [ 0.1; 1.0 /. 3.0; 1e-300; 1.7976931348623157e308; 42.0; -0.0; 123456789.125 ]

(* --- Ab report ------------------------------------------------------------ *)

let run_with ~id metrics =
  Run.create ~run_id:id ~git_rev:"deadbeef" ~host:"testhost"
    ~created_at:"2026-08-09T00:00:00Z" ~profile:"p" ~seed:1 ~wall_s:1.0 metrics

let test_ab_planted_regression_named () =
  let good = [| 10.0; 10.1; 9.9; 10.05; 9.95 |] in
  let a =
    run_with ~id:"a"
      [ Run.metric "stable" good; Run.metric "victim" good ]
  in
  let b =
    run_with ~id:"b"
      [
        Run.metric "stable" (Array.copy good);
        Run.metric "victim" (Array.map (fun x -> x *. 0.7) good);
      ]
  in
  let report = Ab.compare a b in
  checkb "regression detected" true (Ab.has_regression report);
  checkb "victim named" true (List.mem "victim" (Ab.regressed report));
  checkb "stable not blamed" true (not (List.mem "stable" (Ab.regressed report)));
  checkb "stable within noise" true (List.mem "stable" (Ab.within_noise report))

let test_ab_aa_clean () =
  let good = [| 10.0; 10.1; 9.9; 10.05; 9.95 |] in
  let a = run_with ~id:"a" [ Run.metric "m1" good; Run.metric "m2" good ] in
  let b = run_with ~id:"b" [ Run.metric "m1" (Array.copy good); Run.metric "m2" (Array.copy good) ] in
  let report = Ab.compare a b in
  checkb "A/A has no regression" true (not (Ab.has_regression report));
  checki "all within noise" 2 (List.length (Ab.within_noise report))

let test_ab_disjoint_and_errors () =
  let a =
    run_with ~id:"a"
      [ Run.metric "shared" [| 1.0; 1.0; 1.0 |]; Run.metric "only_a" [| 1.0 |] ]
  in
  let b =
    run_with ~id:"b"
      [ Run.metric "shared" [| 1.0; 1.0; 1.0 |]; Run.metric "only_b" [| 2.0 |] ]
  in
  let report = Ab.compare a b in
  checkb "only_in_a" true (report.Ab.only_in_a = [ "only_a" ]);
  checkb "only_in_b" true (report.Ab.only_in_b = [ "only_b" ]);
  (* identical constant series: compares clean, never a regression *)
  checkb "degenerate is not regression" true (not (Ab.has_regression report));
  let filtered = Ab.compare ~filter:(fun n -> n = "shared") a b in
  checki "filter keeps one metric" 1 (List.length filtered.Ab.metrics)

(* --- In-process A/A determinism over the quick espresso profile ----------- *)

let test_espresso_quick_aa () =
  let go () =
    let _reports, arun =
      Runtime.Bench_espresso.run_assess ~quick:true ~seed:2008 ~repeats:2 ()
    in
    arun
  in
  let a = go () in
  let b = go () in
  checks "same profile" a.Run.profile b.Run.profile;
  (* Identity metrics are exactly deterministic across same-seed runs. *)
  List.iter
    (fun m ->
      let name = m.Run.name in
      if Filename.check_suffix name "identical" then
        match Run.find_metric b name with
        | Some m' -> checkb (name ^ " deterministic") true (m.Run.samples = m'.Run.samples)
        | None -> Alcotest.failf "metric %s missing from second run" name)
    a.Run.metrics;
  (* Timing metrics only need to agree within a generous noise floor:
     within-run spread underestimates between-run drift, so the floor
     here is looser than the CI default. *)
  let report = Ab.compare ~min_floor:0.5 a b in
  (match Ab.regressed report with
  | [] -> ()
  | names ->
    Alcotest.failf "same-seed A/A regressed beyond 50%% floor: %s" (String.concat ", " names));
  checkb "A/A compares some metrics" true (List.length report.Ab.metrics > 0)

let () =
  Alcotest.run "assess"
    [
      ( "stats",
        [
          Alcotest.test_case "median fixtures" `Quick test_median_fixtures;
          Alcotest.test_case "mad fixtures" `Quick test_mad_fixtures;
          Alcotest.test_case "rel_spread" `Quick test_rel_spread;
          Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
          Alcotest.test_case "bootstrap CI containment" `Quick test_bootstrap_ci_contains_median;
          Alcotest.test_case "bootstrap CI pinned bounds" `Quick test_bootstrap_ci_pinned;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "A/A within noise" `Quick test_aa_identical_within_noise;
          Alcotest.test_case "planted 30% regression" `Quick test_planted_regression_detected;
          Alcotest.test_case "single-sample fallback" `Quick test_single_sample_point_fallback;
        ] );
      ( "run artifacts",
        [
          Alcotest.test_case "json roundtrip" `Quick test_run_json_roundtrip;
          Alcotest.test_case "save/load" `Quick test_run_save_load;
          Alcotest.test_case "typed parse errors" `Quick test_run_parse_errors_are_typed;
          Alcotest.test_case "number fidelity" `Quick test_json_number_fidelity;
        ] );
      ( "ab",
        [
          Alcotest.test_case "planted regression named" `Quick test_ab_planted_regression_named;
          Alcotest.test_case "A/A clean" `Quick test_ab_aa_clean;
          Alcotest.test_case "disjoint metrics and filters" `Quick test_ab_disjoint_and_errors;
        ] );
      ( "integration",
        [
          Alcotest.test_case "espresso quick A/A" `Slow test_espresso_quick_aa;
        ] );
    ]
