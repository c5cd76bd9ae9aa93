(* The inject → detect → repair → re-verify loop. Orchestration runs in
   the submitting domain; only the batch scenario fans out to pool
   workers, and it reaches the cache through [Cache.evaluator], the same
   stateless policy the serve daemon runs. Nothing but the latency
   readings looks at a clock, so every fault-site draw below happens in
   a fixed order and every count in the report is a function of the
   seed, the plan and the round count. *)

module Pla = Cnfet.Pla
module Plane = Cnfet.Plane
module Program_hw = Cnfet.Program_hw
module Crossbar = Cnfet.Crossbar
module Inject = Fault.Inject
module Defect = Fault.Defect
module Repair = Fault.Repair
module Atpg = Fault.Atpg

type scenario = {
  sc_name : string;
  sc_rounds : int;
  sc_injected : int;
  sc_detected : int;
  sc_repaired : int;
  sc_unrepairable : int;
  sc_undetected : int;
}

type report = {
  seed : int;
  wall_s : float;
  rounds : int;
  jobs : int;
  spare_rows : int;
  injected_by_category : (string * int) list;
  injected_total : int;
  scenarios : scenario list;
  miscompares : int;
  worker_crashes : int;
  retries : int;
  cache_corruptions : int;
  fallback_evals : int;
  degradation : float;
  recoveries : int;
  recovery_p50_s : float;
  recovery_p90_s : float;
  recovery_p99_s : float;
  recovery_max_s : float;
}

let detected_unrepaired r =
  List.fold_left
    (fun n sc -> n + (sc.sc_detected - sc.sc_repaired - sc.sc_unrepairable))
    0 r.scenarios

(* Mutable per-scenario tally, frozen into [scenario] at the end. *)
type tally = {
  name : string;
  mutable rounds : int;
  mutable injected : int;
  mutable detected : int;
  mutable repaired : int;
  mutable unrepairable : int;
  mutable undetected : int;
}

let tally name = { name; rounds = 0; injected = 0; detected = 0; repaired = 0; unrepairable = 0; undetected = 0 }

let freeze t =
  {
    sc_name = t.name;
    sc_rounds = t.rounds;
    sc_injected = t.injected;
    sc_detected = t.detected;
    sc_repaired = t.repaired;
    sc_unrepairable = t.unrepairable;
    sc_undetected = t.undetected;
  }

(* --- fault-site draws ---------------------------------------------------- *)

(* Each drawn decision consumes one fresh site index from a counter, so a
   run's decision sequence is a pure function of the seed. *)
let draw_defect_map ctr ~rows ~cols =
  let m = Defect.perfect ~rows ~cols in
  let injected = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      incr ctr;
      match Inject.crosspoint_fault ~index:!ctr with
      | Defect.Good -> ()
      | k ->
        incr injected;
        Defect.set m ~row:r ~col:c k
    done
  done;
  (m, !injected)

let truncate_map m ~rows ~cols =
  let t = Defect.perfect ~rows ~cols in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      Defect.set t ~row:r ~col:c (Defect.kind m ~row:r ~col:c)
    done
  done;
  t

(* Outputs of [pla] evaluated through per-plane defect maps. *)
let defective_outputs ~and_defects ~or_defects pla inputs =
  let products = Defect.eval_with_defects and_defects (Pla.and_plane pla) inputs in
  let or_rows = Defect.eval_with_defects or_defects (Pla.or_plane pla) products in
  Array.mapi (fun o v -> if Pla.output_inverted pla o then not v else v) or_rows

let minterm n_in m = Array.init n_in (fun i -> m land (1 lsl i) <> 0)

(* --- the reusable detect → repair → re-verify kernel --------------------- *)

type recovery_outcome = {
  rv_status :
    [ `Clean | `Undetected | `Repaired of Repair.assignment | `Unrepairable | `Reverify_failed ];
  rv_wall_s : float;
}

let recover ?(spare_rows = 2) ~tests ~and_defects ~or_defects pla =
  let clock = Obs.Clock.monotonic in
  let now_s () = Int64.to_float (clock ()) /. 1e9 in
  let t0 = now_s () in
  let finish status = { rv_status = status; rv_wall_s = now_s () -. t0 } in
  if Defect.defect_count and_defects + Defect.defect_count or_defects = 0 then finish `Clean
  else begin
    let products = Pla.num_products pla in
    let and_cols = Plane.cols (Pla.and_plane pla) in
    let n_out = Plane.rows (Pla.or_plane pla) in
    (* Detection on the identity mapping (the array as programmed). *)
    let and_id = truncate_map and_defects ~rows:products ~cols:and_cols in
    let or_id = truncate_map or_defects ~rows:n_out ~cols:products in
    let miscompare v =
      defective_outputs ~and_defects:and_id ~or_defects:or_id pla v <> Pla.eval pla v
    in
    if not (List.exists miscompare tests) then finish `Undetected
    else
      match Repair.repair ~spare_rows ~and_defects ~or_defects pla with
      | Repair.Unrepairable -> finish `Unrepairable
      | Repair.Repaired assignment ->
        let rows = products + spare_rows in
        let physical = Repair.apply pla assignment ~rows in
        (* Re-verify the full function through the defects. *)
        let n_in = Pla.num_inputs pla in
        let ok = ref true in
        for m = 0 to (1 lsl n_in) - 1 do
          let v = minterm n_in m in
          if defective_outputs ~and_defects ~or_defects physical v <> Pla.eval pla v then
            ok := false
        done;
        if !ok then finish (`Repaired assignment) else finish `Reverify_failed
  end

(* --- workloads ----------------------------------------------------------- *)

type workload = {
  w_name : string;
  cover : Logic.Cover.t;
  pla : Pla.t;
  golden : bool array array;  (** oracle outputs for every minterm *)
  tests : bool array list;  (** ATPG vectors for the programmed PLA *)
}

let make_workload (w_name, cover) =
  let pla = Pla.of_cover cover in
  let n_in = Pla.num_inputs pla in
  let golden = Array.init (1 lsl n_in) (fun m -> Pla.eval pla (minterm n_in m)) in
  let tests, _undetectable = Atpg.generate pla in
  { w_name; cover; pla; golden; tests }

let workloads () =
  Mcnc.Generators.all
  |> List.filter (fun (_, c) ->
         Logic.Cover.num_inputs c <= 6 && List.length (Logic.Cover.cubes c) <= 24)
  |> List.map make_workload

(* --- bounded retry over the pool ------------------------------------------- *)

(* Attempts per batch task: an injected raise or worker crash costs one
   resubmission, under a fresh [Pool_task] index; a task that fails this
   many times ends the run with its last exception. *)
let max_attempts = 4

(* [Pool.run_all] with a per-index retry: every thunk is in flight at
   once, then each failure is resubmitted alone, in index order, so the
   submission sequence (and with it every [Pool_task] decision) is a
   pure function of the seed. *)
let run_all_retrying pool ~retries thunks =
  let first = Array.map (Pool.submit pool) thunks in
  Array.mapi
    (fun i fut ->
      let rec settle attempt = function
        | Ok v -> v
        | Error (e, bt) when attempt >= max_attempts -> Printexc.raise_with_backtrace e bt
        | Error _ ->
          incr retries;
          settle (attempt + 1) (Pool.await_result (Pool.submit pool thunks.(i)))
      in
      settle 1 (Pool.await_result fut))
    first

(* --- the run ------------------------------------------------------------- *)

let run ?(seed = 42) ?(max_rounds = 50) ?(spare_rows = 2) ?jobs ?(plan = Inject.default) () =
  let clock = Obs.Clock.monotonic in
  let now_s () = Int64.to_float (clock ()) /. 1e9 in
  let t0 = now_s () in
  let recovery = Histogram.create () in
  let timed_recovery f =
    let s = now_s () in
    let r = f () in
    Histogram.observe recovery (now_s () -. s);
    r
  in
  let ws = Array.of_list (workloads ()) in
  if Array.length ws = 0 then invalid_arg "Chaos.run: no workloads";
  let batch_t = tally "supervised_batch"
  and xpoint_t = tally "crosspoint_repair"
  and pg_t = tally "pg_drift_scrub"
  and xbar_t = tally "crossbar_scrub" in
  let miscompares = Atomic.make 0 in
  let evals = Atomic.make 0 in
  let fallback_evals = Atomic.make 0 in
  let tasks = ref 0 and retries = ref 0 in
  let xp_ctr = ref 0 and pg_ctr = ref 1_000_000_000 in
  let reprograms = ref 0 in
  Inject.with_armed ~seed plan @@ fun engine ->
  Pool.with_pool ?jobs @@ fun pool ->
  let cache = Cache.create () in

  (* Scenario 1 — batch sweep: the full input space through the pool and
     the cache's failure policy, checked against the oracle. *)
  let batch_round w =
    batch_t.rounds <- batch_t.rounds + 1;
    let n = Array.length w.golden in
    let chunk = 8 in
    let n_chunks = (n + chunk - 1) / chunk in
    let n_in = Pla.num_inputs w.pla in
    let thunks =
      Array.init n_chunks (fun c ->
          let lo = c * chunk and hi = min n ((c + 1) * chunk) in
          fun () ->
            for m = lo to hi - 1 do
              Atomic.incr evals;
              let v = minterm n_in m in
              let out =
                match Cache.evaluator cache w.cover with
                | Cache.Compiled compiled, _ -> Cache.eval compiled v
                | Cache.Uncompiled pla, _ ->
                  Atomic.incr fallback_evals;
                  Pla.eval pla v
              in
              if out <> w.golden.(m) then Atomic.incr miscompares
            done)
    in
    tasks := !tasks + n_chunks;
    ignore (run_all_retrying pool ~retries thunks)
  in

  (* Scenario 2 — crosspoint faults: [recover] (ATPG detect, spare-row
     repair, re-verify through the defects), then a physical reprogram
     of the repaired AND plane when the array is small enough to
     simulate. *)
  let reprogram_ok w assignment =
    let rows = Pla.num_products w.pla + spare_rows in
    let ap = Pla.and_plane (Repair.apply w.pla assignment ~rows) in
    if !reprograms < 5 && Plane.rows ap * Plane.cols ap <= 64 then begin
      incr reprograms;
      let hw = Program_hw.build ~rows:(Plane.rows ap) ~cols:(Plane.cols ap) () in
      Program_hw.program_plane hw ap;
      Program_hw.verify hw ap
    end
    else true
  in
  let crosspoint_round w =
    xpoint_t.rounds <- xpoint_t.rounds + 1;
    let rows = Pla.num_products w.pla + spare_rows in
    let and_cols = Plane.cols (Pla.and_plane w.pla) in
    let n_out = Plane.rows (Pla.or_plane w.pla) in
    let and_defects, inj_a = draw_defect_map xp_ctr ~rows ~cols:and_cols in
    let or_defects, inj_o = draw_defect_map xp_ctr ~rows:n_out ~cols:rows in
    let injected = inj_a + inj_o in
    xpoint_t.injected <- xpoint_t.injected + injected;
    let s = now_s () in
    match (recover ~spare_rows ~tests:w.tests ~and_defects ~or_defects w.pla).rv_status with
    | `Clean -> ()
    | `Undetected ->
      (* All faults masked on the test set: nothing observable to heal. *)
      xpoint_t.undetected <- xpoint_t.undetected + injected
    | (`Repaired _ | `Unrepairable | `Reverify_failed) as status ->
      xpoint_t.detected <- xpoint_t.detected + injected;
      (match status with
      | `Repaired assignment ->
        if reprogram_ok w assignment then xpoint_t.repaired <- xpoint_t.repaired + injected
      | `Unrepairable -> xpoint_t.unrepairable <- xpoint_t.unrepairable + injected
      | `Reverify_failed -> ());
      Histogram.observe recovery (now_s () -. s)
  in
  (* Scenario 3 — PG charge drift on a live programmed array: disturb
     storage nodes, detect decode flips by readback, rewrite, verify.
     The array persists across rounds, so masked drift can accumulate
     until it finally flips a decode — exactly what periodic scrubbing
     exists to catch. *)
  let pg_plane = Pla.and_plane (Array.get ws 0).pla in
  let pg_hw = Program_hw.build ~rows:(Plane.rows pg_plane) ~cols:(Plane.cols pg_plane) () in
  Program_hw.program_plane pg_hw pg_plane;
  let pg_round () =
    pg_t.rounds <- pg_t.rounds + 1;
    let injected = ref 0 in
    for r = 0 to Plane.rows pg_plane - 1 do
      for c = 0 to Plane.cols pg_plane - 1 do
        incr pg_ctr;
        let d = Inject.pg_drift ~index:!pg_ctr in
        if d <> 0. then begin
          incr injected;
          Program_hw.disturb pg_hw ~row:r ~col:c d
        end
      done
    done;
    pg_t.injected <- pg_t.injected + !injected;
    if !injected > 0 then begin
      let readback = Program_hw.readback pg_hw in
      let flipped = ref [] in
      Plane.iter
        (fun r c m -> if m <> Plane.mode pg_plane ~row:r ~col:c then flipped := (r, c) :: !flipped)
        readback;
      match !flipped with
      | [] -> pg_t.undetected <- pg_t.undetected + !injected
      | cells ->
        let n = List.length cells in
        pg_t.detected <- pg_t.detected + n;
        pg_t.undetected <- pg_t.undetected + (!injected - n);
        let ok =
          timed_recovery @@ fun () ->
          List.iter
            (fun (r, c) ->
              Program_hw.write_mode pg_hw ~row:r ~col:c (Plane.mode pg_plane ~row:r ~col:c))
            cells;
          Program_hw.verify pg_hw pg_plane
        in
        if ok then pg_t.repaired <- pg_t.repaired + n
    end
  in

  (* Scenario 4 — crossbar scrubbing: flip interconnect crosspoints
     against a golden snapshot, detect by comparison, restore, re-check
     the demanded routes. *)
  let xb_n = 6 in
  let xb = Crossbar.create ~rows:xb_n ~cols:xb_n in
  for i = 0 to xb_n - 1 do
    Crossbar.connect xb ~row:i ~col:i
  done;
  let xb_golden = Crossbar.copy xb in
  let xbar_round () =
    xbar_t.rounds <- xbar_t.rounds + 1;
    let injected = ref 0 in
    for r = 0 to xb_n - 1 do
      for c = 0 to xb_n - 1 do
        incr xp_ctr;
        match Inject.crosspoint_fault ~index:!xp_ctr with
        | Defect.Good -> ()
        | Defect.Stuck_closed ->
          if not (Crossbar.connected xb ~row:r ~col:c) then begin
            incr injected;
            Crossbar.connect xb ~row:r ~col:c
          end
        | Defect.Stuck_open ->
          if Crossbar.connected xb ~row:r ~col:c then begin
            incr injected;
            Crossbar.disconnect xb ~row:r ~col:c
          end
      done
    done;
    xbar_t.injected <- xbar_t.injected + !injected;
    if !injected > 0 then
      if Crossbar.equal xb xb_golden then xbar_t.undetected <- xbar_t.undetected + !injected
      else begin
        xbar_t.detected <- xbar_t.detected + !injected;
        let ok =
          timed_recovery @@ fun () ->
          for r = 0 to xb_n - 1 do
            for c = 0 to xb_n - 1 do
              if Crossbar.connected xb_golden ~row:r ~col:c then Crossbar.connect xb ~row:r ~col:c
              else Crossbar.disconnect xb ~row:r ~col:c
            done
          done;
          Crossbar.equal xb xb_golden
          && List.for_all
               (fun i -> Crossbar.route_point_to_point xb ~from_row:i ~to_col:i)
               (List.init xb_n Fun.id)
        in
        if ok then xbar_t.repaired <- xbar_t.repaired + !injected
      end
  in

  let rounds = max 0 max_rounds in
  Obs.Span.with_ ~args:[ ("seed", string_of_int seed) ] "chaos.run" (fun () ->
      for round = 0 to rounds - 1 do
        let w = ws.(round mod Array.length ws) in
        Obs.Span.with_
          ~args:[ ("round", string_of_int round); ("workload", w.w_name) ]
          "chaos.round"
          (fun () ->
            batch_round w;
            crosspoint_round w;
            pg_round ();
            xbar_round ())
      done);
  let fallback_evals = Atomic.get fallback_evals in
  let total_ops = Atomic.get evals + !tasks in
  let degraded = !retries + fallback_evals in
  let recoveries = Histogram.count recovery in
  let recovery_ps = Histogram.percentiles recovery [ 50.; 90.; 99.; 100. ] in
  let recovery_p p = if recoveries = 0 then 0. else List.assoc p recovery_ps in
  {
    seed;
    wall_s = now_s () -. t0;
    rounds;
    jobs = Pool.jobs pool;
    spare_rows;
    injected_by_category = Inject.counts engine;
    injected_total = Inject.total engine;
    scenarios = [ freeze batch_t; freeze xpoint_t; freeze pg_t; freeze xbar_t ];
    miscompares = Atomic.get miscompares;
    worker_crashes = Pool.crashes pool;
    retries = !retries;
    cache_corruptions = Cache.corruptions cache;
    fallback_evals;
    degradation = float_of_int degraded /. float_of_int (max 1 total_ops);
    recoveries;
    recovery_p50_s = recovery_p 50.;
    recovery_p90_s = recovery_p 90.;
    recovery_p99_s = recovery_p 99.;
    recovery_max_s = recovery_p 100.;
  }

(* --- rendering ----------------------------------------------------------- *)

let int n = Assess.Json.Number (float_of_int n)

let scenario_json sc =
  Assess.Json.Obj
    [
      ("name", Assess.Json.String sc.sc_name);
      ("rounds", int sc.sc_rounds);
      ("injected", int sc.sc_injected);
      ("detected", int sc.sc_detected);
      ("repaired", int sc.sc_repaired);
      ("unrepairable", int sc.sc_unrepairable);
      ("undetected", int sc.sc_undetected);
    ]

let deterministic_json r =
  Assess.Json.Obj
    [
      ("seed", int r.seed);
      ("rounds", int r.rounds);
      ("spare_rows", int r.spare_rows);
      ("injected_total", int r.injected_total);
      ( "injected_by_category",
        Assess.Json.Obj (List.map (fun (k, v) -> (k, int v)) r.injected_by_category) );
      ("scenarios", Assess.Json.List (List.map scenario_json r.scenarios));
      ("detected_unrepaired", int (detected_unrepaired r));
      ("miscompares", int r.miscompares);
      ("worker_crashes", int r.worker_crashes);
      ("retries", int r.retries);
      ("cache_corruptions", int r.cache_corruptions);
      ("fallback_evals", int r.fallback_evals);
      ("degradation", Assess.Json.Number r.degradation);
    ]

let to_json r =
  let det = match deterministic_json r with Assess.Json.Obj kvs -> kvs | _ -> assert false in
  let num x = Assess.Json.Number x in
  Assess.Json.Obj
    (det
    @ [
        ("jobs", int r.jobs);
        ("wall_s", num r.wall_s);
        ("recoveries", int r.recoveries);
        ( "recovery_latency_s",
          Assess.Json.Obj
            [
              ("p50", num r.recovery_p50_s);
              ("p90", num r.recovery_p90_s);
              ("p99", num r.recovery_p99_s);
              ("max", num r.recovery_max_s);
            ] );
      ])

let summary r =
  let b = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "chaos: seed %d, %d rounds in %.2fs (%d jobs, %d spare rows)\n" r.seed r.rounds r.wall_s
    r.jobs r.spare_rows;
  pf "  injected %d faults:" r.injected_total;
  List.iter (fun (k, v) -> if v > 0 then pf " %s=%d" k v) r.injected_by_category;
  pf "\n";
  List.iter
    (fun sc ->
      pf "  %-18s injected %4d  detected %4d  repaired %4d  unrepairable %2d  masked %4d\n"
        sc.sc_name sc.sc_injected sc.sc_detected sc.sc_repaired sc.sc_unrepairable
        sc.sc_undetected)
    r.scenarios;
  pf "  runtime: %d worker crashes, %d retries\n" r.worker_crashes r.retries;
  pf "  cache: %d corruptions detected, %d fallback evals\n" r.cache_corruptions
    r.fallback_evals;
  pf "  miscompares vs oracle: %d; degradation: %.2f%%\n" r.miscompares (100. *. r.degradation);
  if r.recoveries > 0 then
    pf "  recovery latency (s): p50 %.4f  p90 %.4f  p99 %.4f  max %.4f over %d recoveries\n"
      r.recovery_p50_s r.recovery_p90_s r.recovery_p99_s r.recovery_max_s r.recoveries;
  pf "  detected-but-unrepaired: %d\n" (detected_unrepaired r);
  Buffer.contents b
