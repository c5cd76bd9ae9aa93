(* The population-sweep workload: a fixed index range of
   [Sweep.Drive.default] at the run seed, every item run serially on this
   process through [Sweep.Drive.item_pipeline] and [Sweep.Stage.exec].
   No [Runtime.Pool] domain is involved: pooled wall time varied far
   more than the CPU time behind it. *)

open Measure

let config seed = { Sweep.Drive.default with seed; jobs = 1 }

(* The deterministic fields of an item, floats at full precision: a
   speed-up must leave every one of them identical. *)
let identity (it : Sweep.Drive.item) =
  Printf.sprintf "%d %s %d %d %d %d %d %d %d %d %.17g %.17g" it.it_index it.it_name it.it_n_in
    it.it_n_out it.it_target_products it.it_achieved_products it.it_products it.it_area it.it_blocks
    it.it_grid it.it_frequency_hz it.it_yield

let sane (it : Sweep.Drive.item) =
  it.it_yield >= 0. && it.it_yield <= 1. && it.it_frequency_hz > 0. && it.it_achieved_products > 0

type sample = {
  index : int;
  lat_s : float;
  line : string option;  (** [None]: a stage raised, or an invariant failed *)
}

let run_item ?observe config index =
  let t0 = now () in
  let r = Sweep.Stage.exec ?observe (Sweep.Drive.item_pipeline config ~index) () in
  let lat_s = now () -. t0 in
  match r with
  | Ok it when sane it -> { index; lat_s; line = Some (identity it) }
  | Ok it ->
    Printf.eprintf "  item %d breaks an invariant: %s\n%!" index (identity it);
    { index; lat_s; line = None }
  | Error f ->
    Printf.eprintf "  item %d failed: %s\n%!" index (Sweep.Stage.failure_to_string f);
    { index; lat_s; line = None }

let range (s : Spec.sweep) = List.init s.items Fun.id

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* One pass over the range at [seed], as a line of perfbench/sweep_digests.txt. *)
let digest_line ~seed (s : Spec.sweep) =
  let config = config seed in
  let lines =
    List.map
      (fun i ->
        match (run_item config i).line with
        | Some l -> l
        | None -> failwith (Printf.sprintf "seed %d: item %d failed" seed i))
      (range s)
  in
  Printf.sprintf "%d %d %s" seed s.items (digest lines)

(* The digest recorded for [seed], if any. A file with no digest at all
   for the range fails the run: the gate would silently be off. *)
let recorded ~digests ~seed (s : Spec.sweep) =
  let ds =
    String.split_on_char '\n' (read_file digests)
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | [ sd; items; d ] when items = string_of_int s.items ->
             Option.map (fun sd -> (sd, d)) (int_of_string_opt sd)
           | _ -> None)
  in
  if ds = [] then
    failwith
      (Printf.sprintf "%s records no digest for %d items; record them (see README.md)" digests
         s.items);
  List.assoc_opt seed ds

(* Stage name -> per-layer metric. A stage missing here is an
   accounting error: its time would hide in the glue. *)
let stage_metrics =
  [
    ("sweep.generate", "stage.generate_ms");
    ("sweep.phase", "stage.phase_ms");
    ("sweep.fold", "stage.fold_ms");
    ("sweep.map", "stage.map_ms");
    ("fpga.place", "stage.place_ms");
    ("fpga.route", "stage.route_ms");
    ("fpga.timing", "stage.timing_ms");
    ("sweep.yield", "stage.yield_ms");
  ]

let run ~seed ~seconds ~trace ~plant ~tail ~profile_out ~digests (s : Spec.sweep) =
  (* Set-up: from run entry until the first item can begin, i.e. the
     config, the range and this seed's recorded digest. *)
  let prepare () = (config seed, range s, recorded ~digests ~seed s) in
  let setup_s =
    Array.init setups_per_run (fun _ ->
        let t0 = now () in
        ignore (prepare ());
        now () -. t0)
  in
  let config, range, recorded = prepare () in
  (* The first occurrence of each index is its reference; every later
     run of that index must reproduce it. *)
  let reference = Hashtbl.create 128 in
  let reproduces smp =
    match smp.line with
    | None -> false
    | Some l -> (
      match Hashtbl.find_opt reference smp.index with
      | Some r -> String.equal r l
      | None ->
        Hashtbl.add reference smp.index l;
        true)
  in
  (* untimed warm-up; its results become references like any other *)
  let warm_ok =
    List.filteri (fun i _ -> i < s.warmup_items) range
    |> List.map (fun i -> reproduces (run_item config i))
    |> List.for_all Fun.id
  in
  let t_start = now () in
  let samples = ref [] and n = ref 0 in
  let marks = ref [ { at = t_start; cpu = self_cpu_s (); count = 0 } ] in
  (* whole passes only, each a slice, so every slice weighs the items of
     the range alike *)
  while !n = 0 || now () -. t_start < seconds do
    List.iter (fun i -> samples := run_item config i :: !samples) range;
    n := !n + s.items;
    marks := { at = now (); cpu = self_cpu_s (); count = !n } :: !marks
  done;
  let marks = List.rev !marks in
  let wall = now () -. t_start and n = !n in
  let samples = Array.of_list (List.rev !samples) in
  if plant then begin
    let first = samples.(0) in
    samples.(0) <- { first with line = Option.map (fun l -> l ^ " planted") first.line }
  end;
  let ok_each = Array.map reproduces samples in
  let first_pass =
    Array.sub samples 0 s.items |> Array.to_list |> List.filter_map (fun smp -> smp.line) |> digest
  in
  let digest_ok =
    match recorded with
    | None ->
      Printf.eprintf "  no recorded digest for seed %d: reproduction and invariants only\n%!" seed;
      true
    | Some d when String.equal d first_pass -> true
    | Some d ->
      Printf.eprintf "  DIGEST MISMATCH for seed %d: recorded %s, got %s\n%!" seed d first_pass;
      false
  in
  if not (digest_ok && warm_ok) then Array.fill ok_each 0 n false;
  let ok = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ok_each in
  let items_per_s, cpu_ms_per_item, _ = slice_rates marks ~ok:ok_each in
  let lat_ms = Array.map (fun smp -> smp.lat_s *. 1e3) samples in
  Printf.eprintf "  %d items (%d passes over %d) in %.3f s; %d beyond the p%g tail\n%!" n
    (n / s.items) s.items wall (beyond tail lat_ms) tail;
  let e2e =
    [
      metric "items_per_s" "1/s" items_per_s;
      metric "cpu_ms_per_item" "ms" cpu_ms_per_item;
      metric "latency_p50_ms" "ms" (median lat_ms);
      metric "latency_tail_ms" "ms" (percentile tail lat_ms);
      metric "setup_s" "s" (median setup_s);
      metric "peak_rss_mb" "MB" (peak_rss_mb (Unix.getpid ()));
      metric "ok_share" "share" (float ok /. float n);
    ]
  in
  let layers, traced_ok =
    if not trace then ([], true)
    else begin
      let stage_s = Hashtbl.create 16 in
      let spent st = Option.value ~default:0. (Hashtbl.find_opt stage_s st) in
      let observe ~stage ~dur_s =
        if not (List.mem_assoc stage stage_metrics) then
          failwith ("accounting error: stage " ^ stage ^ " has no per-layer metric");
        Hashtbl.replace stage_s stage (dur_s +. spent stage)
      in
      let item i = Obs.Span.with_ "perfbench.sweep.item" (fun () -> run_item ~observe config i) in
      let (tsamples, tcpu), sum_of =
        traced ~profile_out (fun () ->
            let c0 = self_cpu_s () in
            let smps = List.map item range in
            (smps, self_cpu_s () -. c0))
      in
      let per_item x = x *. 1e3 /. float s.items in
      let item_ms = per_item (sum_of "perfbench.sweep.item") in
      let stages = List.map (fun (st, m) -> (m, per_item (spent st))) stage_metrics in
      let sum = List.fold_left (fun a (_, v) -> a +. v) 0. stages in
      let glue = item_ms -. sum in
      let row name v note = Printf.eprintf "    %-22s %10.3f%s\n" name v note in
      Printf.eprintf "  stage accounting, ms per item (traced pass over the %d items):\n" s.items;
      List.iter (fun (m, v) -> row m v "") stages;
      row "sum of stages" sum "";
      row "stage.glue_ms" glue "";
      row "item" item_ms "  (wall)";
      row "cpu_ms_per_item" cpu_ms_per_item "  (untraced)";
      let accounting_ok = glue >= 0. && glue <= sum in
      if not accounting_ok then
        Printf.eprintf "  ACCOUNTING ERROR: glue %.3f ms does not complete the stages; withheld\n%!" glue;
      let overhead = (tcpu *. 1e3 /. float s.items /. cpu_ms_per_item) -. 1. in
      ( List.map (fun (m, v) -> metric m "ms" v) stages
        @ [
            metric "stage.glue_ms" "ms" (if accounting_ok then glue else 0.);
            metric "accounting.ok" "flag" (if accounting_ok then 1. else 0.);
            metric "trace.overhead_share" "share" overhead;
          ],
        List.for_all reproduces tsamples )
    end
  in
  { correct = ok = n && traced_ok; attempted = n; failed = n - ok; e2e; layers }
