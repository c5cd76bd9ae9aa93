(* lib/obs: structured tracing spans.

   The centerpiece is a golden-file test: a scripted span sequence under a
   deterministic fixed-step clock must export byte-for-byte identical
   Chrome trace-event JSON (test/golden/trace_spans.json), including while
   unrelated domains are tracing concurrently. Around it: nesting-depth
   bookkeeping, [Event.check] rejection of malformed traces, exception
   safety of [Trace.span], ring-buffer overflow accounting, schema
   validation, the text profile, and the process-wide install hooks.

   Set DUMP_TRACE=<path> to write the freshly rendered golden JSON for
   updating the golden file after an intentional format change. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- the scripted golden sequence ---------------------------------------- *)

(* Spans from three subsystems, nested three deep, with args exercising
   JSON escaping; 12 events on a single track. *)
let scripted_trace () =
  let clock = Obs.Clock.fixed_step ~start_ns:1000L ~step_ns:500L () in
  let t = Obs.Trace.create ~clock () in
  Obs.Trace.span t ~args:[ ("seed", "2008") ] "bench.run" (fun () ->
      Obs.Trace.span t "espresso.minimize" (fun () ->
          Obs.Trace.span t "espresso.expand" (fun () ->
              Obs.Trace.instant t ~args:[ ("cubes", "12"); ("q\"k", "v\\w") ] "espresso.cube");
          Obs.Trace.span t "espresso.reduce" (fun () -> ()));
      Obs.Trace.span t "sim.phase" (fun () ->
          Obs.Trace.instant t ~args:[ ("sweeps", "3") ] "sim.settle"));
  t

let golden_path name =
  if Sys.file_exists (Filename.concat "golden" name) then Filename.concat "golden" name
  else Filename.concat "test/golden" name

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let test_golden_chrome_json () =
  let t = scripted_trace () in
  let events = Obs.Trace.events t in
  checki "event count" 12 (List.length events);
  checki "single track" 1 (Obs.Trace.tracks t);
  checki "nothing dropped" 0 (Obs.Trace.dropped t);
  (match Obs.Event.check events with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "scripted trace ill-formed: %s" msg);
  let json = Obs.Export.to_chrome_json events in
  (match Sys.getenv_opt "DUMP_TRACE" with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc json;
    close_out oc
  | None -> ());
  (match Obs.Export.validate_chrome_json json with
  | Ok n -> checki "validator counts every event" 12 n
  | Error msg -> Alcotest.failf "exported JSON failed validation: %s" msg);
  let golden = read_file (golden_path "trace_spans.json") in
  if json <> golden then
    Alcotest.failf
      "trace JSON drifted from golden/trace_spans.json (%d vs %d bytes). If the change is \
       intentional, regenerate with: DUMP_TRACE=test/golden/trace_spans.json dune exec \
       test/test_obs.exe -- test golden"
      (String.length json) (String.length golden)

(* The injected clock makes the export deterministic even while other
   domains are busy tracing into their own collectors — the analogue of
   running a traced benchmark at different --jobs counts. *)
let test_golden_deterministic_under_noise () =
  let reference = Obs.Export.to_chrome_json (Obs.Trace.events (scripted_trace ())) in
  let stop = Atomic.make false in
  let noisy () =
    let t = Obs.Trace.create ~capacity:64 () in
    while not (Atomic.get stop) do
      Obs.Trace.span t "noise.work" (fun () -> Obs.Trace.instant t "noise.tick")
    done
  in
  let domains = Array.init 3 (fun _ -> Domain.spawn noisy) in
  let runs = List.init 4 (fun _ -> Obs.Export.to_chrome_json (Obs.Trace.events (scripted_trace ()))) in
  Atomic.set stop true;
  Array.iter Domain.join domains;
  List.iteri (fun i run -> checks (Printf.sprintf "run %d = reference" i) reference run) runs

let test_nesting_depths () =
  let t = scripted_trace () in
  let events = Obs.Trace.events t in
  let depths = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.depth) events in
  checkb "depth profile" true
    (depths = [ 0; 1; 2; 3; 2; 2; 2; 1; 1; 2; 1; 0 ]);
  let seqs = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.seq) events in
  checkb "seq is the emission index" true (seqs = List.init 12 Fun.id);
  let ts = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.ts_ns) events in
  checkb "fixed-step timestamps" true
    (ts = List.init 12 (fun i -> Int64.of_int (1000 + (500 * i))))

(* --- Event.check on malformed traces ------------------------------------- *)

let ev ?(name = "s") ?(phase = Obs.Event.Begin) ?(ts_ns = 0L) ?(track = 0) ?(depth = 0)
    ~seq () =
  { Obs.Event.name; phase; ts_ns; track; depth; seq; args = [] }

let expect_error label substring events =
  match Obs.Event.check events with
  | Ok () -> Alcotest.failf "%s: expected Error, got Ok" label
  | Error msg ->
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    checkb (label ^ ": message mentions the defect") true (contains msg substring)

let test_check_rejects_malformed () =
  expect_error "unterminated span" "never ended" [ ev ~seq:0 () ];
  expect_error "end with no open span" "no open span"
    [ ev ~phase:Obs.Event.End ~seq:0 () ];
  expect_error "mismatched end name" "does not match"
    [
      ev ~name:"a" ~seq:0 ();
      ev ~name:"b" ~phase:Obs.Event.End ~depth:0 ~seq:1 ();
    ];
  expect_error "backwards timestamp" "went backwards"
    [
      ev ~name:"a" ~ts_ns:10L ~seq:0 ();
      ev ~name:"a" ~phase:Obs.Event.End ~ts_ns:5L ~seq:1 ();
    ];
  expect_error "wrong begin depth" "stack height"
    [
      ev ~name:"a" ~depth:1 ~seq:0 ();
      ev ~name:"a" ~phase:Obs.Event.End ~depth:1 ~seq:1 ();
    ];
  expect_error "wrong end depth" "expected"
    [
      ev ~name:"a" ~seq:0 ();
      ev ~name:"a" ~phase:Obs.Event.End ~depth:3 ~seq:1 ();
    ];
  (* Tracks are independent: a defect on track 1 is reported even when
     track 0 is clean. *)
  expect_error "per-track stacks" "track 1"
    [
      ev ~name:"ok" ~seq:0 ();
      ev ~name:"ok" ~phase:Obs.Event.End ~seq:1 ();
      ev ~name:"open" ~track:1 ~seq:0 ();
    ]

exception Kaboom

let test_exception_safety () =
  let t = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ()) () in
  (match Obs.Trace.span t "outer" (fun () ->
       Obs.Trace.span t "inner" (fun () -> raise Kaboom))
   with
  | () -> Alcotest.fail "expected Kaboom to propagate"
  | exception Kaboom -> ());
  let events = Obs.Trace.events t in
  checki "both spans closed" 4 (List.length events);
  match Obs.Event.check events with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "trace after exception ill-formed: %s" msg

let test_ring_overflow () =
  (* Capacity clamps to the minimum of 16; 40 instants overflow it. *)
  let t = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ()) ~capacity:1 () in
  for i = 1 to 40 do
    Obs.Trace.instant t ~args:[ ("i", string_of_int i) ] "tick"
  done;
  let events = Obs.Trace.events t in
  checki "ring keeps the newest 16" 16 (List.length events);
  checki "dropped counts the rest" 24 (Obs.Trace.dropped t);
  checkb "newest events retained" true
    (match List.rev events with
    | last :: _ -> last.Obs.Event.args = [ ("i", "40") ]
    | [] -> false);
  (* The text profile skips unmatched events instead of failing. *)
  let t2 = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ()) ~capacity:1 () in
  for _ = 1 to 20 do
    Obs.Trace.span t2 "spin" (fun () -> ())
  done;
  ignore (Obs.Export.text_profile (Obs.Trace.events t2))

let test_observer_callback () =
  let t = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ~step_ns:500L ()) () in
  let seen = ref [] in
  Obs.Trace.set_observer t (fun ~name ~dur_s -> seen := (name, dur_s) :: !seen);
  Obs.Trace.span t "a" (fun () -> Obs.Trace.span t "b" (fun () -> ()));
  (* Ends fire innermost first; each empty span spans one clock step. *)
  match List.rev !seen with
  | [ ("b", db); ("a", da) ] ->
    checkb "inner duration = 1 step" true (Float.abs (db -. 500e-9) < 1e-15);
    checkb "outer duration = 3 steps" true (Float.abs (da -. 1500e-9) < 1e-15)
  | other -> Alcotest.failf "expected two observations, got %d" (List.length other)

let test_multi_domain_wellformed () =
  let t = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ()) () in
  let worker k () =
    for i = 1 to 50 do
      Obs.Trace.span t "worker.outer" (fun () ->
          Obs.Trace.span t "worker.inner" (fun () ->
              Obs.Trace.instant t ~args:[ ("k", string_of_int (k + i)) ] "worker.tick"))
    done
  in
  let domains = Array.init 4 (fun k -> Domain.spawn (worker k)) in
  Array.iter Domain.join domains;
  checki "one track per domain" 4 (Obs.Trace.tracks t);
  let events = Obs.Trace.events t in
  checki "all events retained" (4 * 50 * 5) (List.length events);
  (match Obs.Event.check events with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "multi-domain trace ill-formed: %s" msg);
  match Obs.Export.validate_chrome_json (Obs.Export.to_chrome_json events) with
  | Ok n -> checki "validator agrees" (4 * 50 * 5) n
  | Error msg -> Alcotest.failf "multi-domain JSON invalid: %s" msg

(* --- validator and profile ------------------------------------------------ *)

let test_validator_rejects () =
  let is_error = function Error _ -> true | Ok _ -> false in
  checkb "garbage" true (is_error (Obs.Export.validate_chrome_json "not json"));
  checkb "missing traceEvents" true (is_error (Obs.Export.validate_chrome_json "{\"a\":1}"));
  checkb "traceEvents not an array" true
    (is_error (Obs.Export.validate_chrome_json "{\"traceEvents\":3}"));
  checkb "unbalanced begin" true
    (is_error
       (Obs.Export.validate_chrome_json
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0}]}"));
  checkb "unknown phase" true
    (is_error
       (Obs.Export.validate_chrome_json
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"ts\":1,\"pid\":0,\"tid\":0}]}"));
  checkb "empty trace is valid" true
    (Obs.Export.validate_chrome_json "{\"traceEvents\":[]}" = Ok 0)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_text_profile () =
  let profile = Obs.Export.text_profile (Obs.Trace.events (scripted_trace ())) in
  checkb "root span" true (contains profile "bench.run");
  checkb "children indented" true (contains profile "  espresso.minimize");
  checkb "grandchildren indented" true (contains profile "    espresso.expand");
  (* espresso.minimize spans ts 1500..4500 — exactly 3.0us = 0.003 ms. *)
  checkb "totals in ms" true (contains profile "0.003")

let test_subsystems () =
  let subs = Obs.Export.subsystems (Obs.Trace.events (scripted_trace ())) in
  checkb "three subsystems" true (subs = [ "bench"; "espresso"; "sim" ])

let test_install_hooks () =
  checkb "disabled by default" false (Obs.Span.enabled ());
  checki "span passes through when disabled" 42 (Obs.Span.with_ "none" (fun () -> 42));
  Obs.Span.instant "ignored";
  let t = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ()) () in
  Obs.Trace.install t;
  let r =
    Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
        checkb "enabled once installed" true (Obs.Span.enabled ());
        Obs.Span.with_ "installed.span" (fun () ->
            Obs.Span.instant "installed.tick";
            7))
  in
  checki "result passes through" 7 r;
  checkb "uninstalled again" false (Obs.Span.enabled ());
  checki "events landed in the collector" 3 (List.length (Obs.Trace.events t))

let test_clock_monotonic () =
  let prev = ref 0L in
  for _ = 1 to 1000 do
    let now = Obs.Clock.monotonic () in
    checkb "monotonic never decreases" true (Int64.compare now !prev >= 0);
    prev := now
  done;
  (* readings differ by elapsed time: a 20 ms sleep reads as at least
     that much *)
  let t0 = Obs.Clock.monotonic () in
  Unix.sleepf 0.02;
  let dt = Int64.sub (Obs.Clock.monotonic ()) t0 in
  checkb "a sleep reads as elapsed time" true (Int64.compare dt 20_000_000L >= 0)

let () =
  Alcotest.run "obs"
    [
      ( "golden",
        [
          Alcotest.test_case "chrome JSON matches golden file" `Quick test_golden_chrome_json;
          Alcotest.test_case "deterministic under domain noise" `Quick
            test_golden_deterministic_under_noise;
        ] );
      ( "events",
        [
          Alcotest.test_case "nesting depths and seq" `Quick test_nesting_depths;
          Alcotest.test_case "check rejects malformed traces" `Quick test_check_rejects_malformed;
          Alcotest.test_case "exception safety" `Quick test_exception_safety;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "observer callback" `Quick test_observer_callback;
          Alcotest.test_case "multi-domain wellformedness" `Quick test_multi_domain_wellformed;
        ] );
      ( "export",
        [
          Alcotest.test_case "validator rejects bad JSON" `Quick test_validator_rejects;
          Alcotest.test_case "text profile" `Quick test_text_profile;
          Alcotest.test_case "subsystems" `Quick test_subsystems;
        ] );
      ( "runtime hooks",
        [
          Alcotest.test_case "install/uninstall" `Quick test_install_hooks;
          Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
        ] );
    ]
