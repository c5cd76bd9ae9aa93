(* Tests for the chaos/robustness stack: deterministic fault injection,
   the cache's failure policy under injected rot, worker-crash isolation,
   bounded task retry, and the end-to-end self-healing report, whose
   deterministic view is pinned byte for byte at one and two jobs.

   Set DUMP_CHAOS=<path> to rewrite the golden JSON after an intentional
   change to the fault plan, the scenarios or the report. *)

module Inject = Fault.Inject
module Pool = Runtime.Pool
module Cache = Runtime.Cache
module Metrics = Runtime.Metrics
module Chaos = Runtime.Chaos

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let counter m name = Option.value ~default:0 (List.assoc_opt name (Metrics.counters m))

(* --- injection engine ----------------------------------------------------- *)

let crash_all = { Inject.nothing with Inject.worker_crash = 1.0 }

let test_inject_disarmed_noop () =
  checkb "no engine armed" false (Inject.armed ());
  checkb "tap is No_fault" true (Inject.tap (Inject.Pool_task { index = 0 }) = Inject.No_fault)

let test_inject_deterministic () =
  let draw seed =
    Inject.with_armed ~seed Inject.default (fun t ->
        let actions =
          List.init 200 (fun i ->
              match Inject.tap (Inject.Pool_task { index = i }) with
              | Inject.No_fault -> 'n'
              | Inject.Raise _ -> 'r'
              | Inject.Crash_worker _ -> 'c'
              | Inject.Stall _ -> 's'
              | Inject.Corrupt -> 'x')
        in
        (actions, Inject.counts t, Inject.total t))
  in
  let a1, c1, t1 = draw 7 and a2, c2, t2 = draw 7 in
  checkb "same seed, same decisions" true (a1 = a2);
  checkb "same seed, same counts" true (c1 = c2);
  checki "same seed, same total" t1 t2;
  let a3, _, _ = draw 8 in
  checkb "different seed, different decisions" true (a1 <> a3)

let test_inject_single_engine () =
  Inject.with_armed ~seed:1 Inject.nothing (fun _ ->
      match Inject.arm ~seed:2 Inject.nothing with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "second arm must be rejected");
  checkb "disarmed after with_armed" false (Inject.armed ())

let test_inject_crosspoint_and_drift () =
  Inject.with_armed ~seed:3
    { Inject.nothing with Inject.crosspoint_flip = 1.0; pg_drift = 1.0; pg_drift_v = 0.7 }
    (fun _ ->
      checkb "crosspoint always fires" true
        (Inject.crosspoint_fault ~index:0 <> Fault.Defect.Good);
      let d = Inject.pg_drift ~index:0 in
      checkb "drift magnitude" true (Float.abs (Float.abs d -. 0.7) < 1e-9));
  checkb "good when disarmed" true (Inject.crosspoint_fault ~index:0 = Fault.Defect.Good);
  checkb "no drift when disarmed" true (Inject.pg_drift ~index:0 = 0.)

(* --- cache corruption under injection -------------------------------------- *)

let test_injected_store_corruption_detected () =
  Inject.with_armed ~seed:11 { Inject.nothing with Inject.cache_corrupt = 1.0 } (fun t ->
      let cover = Mcnc.Generators.majority 3 in
      let cache = Cache.create () in
      let golden = Cnfet.Pla.eval (Cnfet.Pla.of_cover cover) in
      let inputs = [| true; true; false |] in
      let out =
        match Cache.evaluator cache cover with
        | Cache.Compiled _, _ -> Alcotest.fail "every store rots: nothing may be served compiled"
        | Cache.Uncompiled pla, _ -> Cnfet.Pla.eval pla inputs
      in
      checkb "served correctly uncompiled" true (out = golden inputs);
      checkb "corruption detected at store" true (Cache.corruptions cache >= 1);
      checkb "fault counted by engine" true (List.assoc "cache_corrupt" (Inject.counts t) >= 1))

(* --- worker crash isolation ------------------------------------------------- *)

let test_worker_crash_respawn () =
  let metrics = Metrics.create () in
  Pool.with_pool ~metrics ~jobs:2 (fun pool ->
      Inject.with_armed ~seed:5 crash_all (fun _ ->
          match Pool.await (Pool.submit pool (fun () -> 1)) with
          | _ -> Alcotest.fail "task should have been crashed"
          | exception Inject.Injected_fault _ -> ());
      checkb "crash counted" true (Pool.crashes pool >= 1);
      (* The pool must still serve after losing a worker: the injection is
         disarmed now, so fresh tasks run clean on the respawned domain. *)
      let r = Pool.run_all pool (Array.init 16 (fun i () -> i + 1)) in
      checkb "pool drains after respawn" true (r = Array.init 16 (fun i -> i + 1));
      checkb "respawns recorded" true (counter metrics "pool.respawns" >= 1))

let test_run_all_drains_after_crash () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let done_flags = Array.make 8 false in
      let thunks =
        Array.init 8 (fun i () ->
            if i = 2 then failwith "boom2";
            if i = 5 then failwith "boom5";
            done_flags.(i) <- true)
      in
      (match Pool.run_all pool thunks with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure m -> Alcotest.check Alcotest.string "smallest index wins" "boom2" m);
      Array.iteri
        (fun i flag -> if i <> 2 && i <> 5 then checkb "sibling completed" true flag)
        done_flags)

(* --- end-to-end chaos report ------------------------------------------------ *)

(* The golden run: the default plan at seed 7 for four rounds, short
   enough for the suite yet drawing a task stall, a worker crash (and
   its retry) and cache rot down to uncompiled evaluation next to the
   device faults. *)
let quick jobs = Chaos.run ~seed:7 ~max_rounds:4 ~jobs ()

let quick_j1 = lazy (quick 1)
let quick_j2 = lazy (quick 2)

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat "test/golden" name

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_chaos_report_heals () =
  let r = Lazy.force quick_j2 in
  checki "requested rounds ran" 4 r.Chaos.rounds;
  checki "no miscompares against the oracle" 0 r.Chaos.miscompares;
  checki "every detected fault handled" 0 (Chaos.detected_unrepaired r);
  checkb "faults were actually injected" true (r.Chaos.injected_total > 0);
  let json = Assess.Json.to_string (Chaos.to_json r) in
  let contains needle =
    let n = String.length needle and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> checkb (Printf.sprintf "report has %s" needle) true (contains needle))
    [ "\"degradation\""; "\"detected_unrepaired\""; "\"recovery_latency_s\""; "\"scenarios\"" ]

(* Everything but the measured fields is a function of (seed, plan,
   rounds, spare rows): the same bytes at one job and at two, and the
   bytes pinned in golden/chaos_quick.json. *)
let test_chaos_deterministic_injection () =
  let det r = Assess.Json.to_string ~indent:2 (Chaos.deterministic_json r) ^ "\n" in
  let j1 = det (Lazy.force quick_j1) and j2 = det (Lazy.force quick_j2) in
  (match Sys.getenv_opt "DUMP_CHAOS" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc j1;
    close_out oc
  | None -> ());
  checkb "jobs 1 and jobs 2 give the same deterministic view" true (j1 = j2);
  let golden = read_file (golden_path "chaos_quick.json") in
  if j1 <> golden then
    Alcotest.failf
      "quick chaos run drifted from golden/chaos_quick.json (%d vs %d bytes). If the change is \
       intentional, regenerate with: DUMP_CHAOS=$PWD/test/golden/chaos_quick.json dune exec \
       test/test_chaos.exe -- test self-healing"
      (String.length j1) (String.length golden)

(* --- bounded task retry ------------------------------------------------ *)

(* The retry loop that supervises batch tasks: a flaky thunk is
   resubmitted until it succeeds, each resubmission counted. *)
let test_retry_then_success () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let retries = ref 0 in
      let tries = Atomic.make 0 in
      let v =
        Chaos.run_all_retrying pool ~retries
          [|
            (fun () ->
              if Atomic.fetch_and_add tries 1 < 2 then failwith "flaky";
              42);
          |]
      in
      checki "third attempt succeeded" 42 v.(0);
      checki "two retries counted" 2 !retries)

(* Each index is retried on its own: index [i] fails [i] times, the
   results come back in index order and the retries add up. *)
let test_run_all_retries_per_index () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let n = Chaos.max_attempts in
      let tries = Array.init n (fun _ -> Atomic.make 0) in
      let thunks =
        Array.init n (fun i () ->
            if Atomic.fetch_and_add tries.(i) 1 < i then failwith "flaky";
            i * 10)
      in
      let retries = ref 0 in
      let out = Chaos.run_all_retrying pool ~retries thunks in
      Alcotest.check Alcotest.(array int) "per-index results in order"
        (Array.init n (fun i -> i * 10))
        out;
      checki "one retry per failure" (n * (n - 1) / 2) !retries;
      Array.iteri
        (fun i t -> checki (Printf.sprintf "index %d attempts" i) (i + 1) (Atomic.get t))
        tries)

(* Raised task faults: failed batch tasks are resubmitted, and the
   results still match the oracle. *)
let test_chaos_retries_task_faults () =
  let plan = { Inject.nothing with Inject.task_raise = 0.3; worker_crash = 0.1 } in
  let r = Chaos.run ~seed:7 ~max_rounds:2 ~jobs:2 ~plan () in
  checkb "tasks were retried" true (r.Chaos.retries > 0);
  checkb "workers crashed and were replaced" true (r.Chaos.worker_crashes > 0);
  checki "no miscompares against the oracle" 0 r.Chaos.miscompares

(* A task that fails on every attempt ends the run with its own fault
   instead of retrying forever. *)
let test_chaos_retries_exhausted () =
  let plan = { Inject.nothing with Inject.task_raise = 1.0 } in
  (match Chaos.run ~seed:7 ~max_rounds:1 ~jobs:2 ~plan () with
  | _ -> Alcotest.fail "expected the injected fault to surface"
  | exception Inject.Injected_fault { site; _ } ->
    Alcotest.check Alcotest.string "the task's own fault" "task_raise" site);
  checkb "disarmed after the failed run" false (Inject.armed ())

let () =
  Alcotest.run "chaos"
    [
      ( "inject",
        [
          Alcotest.test_case "disarmed is no-op" `Quick test_inject_disarmed_noop;
          Alcotest.test_case "seeded determinism" `Quick test_inject_deterministic;
          Alcotest.test_case "single engine" `Quick test_inject_single_engine;
          Alcotest.test_case "crosspoint and drift draws" `Quick test_inject_crosspoint_and_drift;
        ] );
      ( "cache policy",
        [
          Alcotest.test_case "injected store corruption" `Quick
            test_injected_store_corruption_detected;
        ] );
      ( "crash isolation",
        [
          Alcotest.test_case "worker crash respawn" `Quick test_worker_crash_respawn;
          Alcotest.test_case "run_all drains after failures" `Quick
            test_run_all_drains_after_crash;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "retry then success" `Quick test_retry_then_success;
          Alcotest.test_case "run_all retries per index" `Quick test_run_all_retries_per_index;
        ] );
      ( "self-healing",
        [
          Alcotest.test_case "chaos report heals" `Quick test_chaos_report_heals;
          Alcotest.test_case "deterministic injection" `Quick test_chaos_deterministic_injection;
          Alcotest.test_case "retries task faults" `Quick test_chaos_retries_task_faults;
          Alcotest.test_case "retries exhausted" `Quick test_chaos_retries_exhausted;
        ] );
    ]
