(* A small metrics registry: named counters (monotone, atomic), gauges
   (instantaneous, settable or computed by callback) and latency
   histograms. One registry per service; a process-wide [global] registry
   is provided for convenience and is what the CLI's [--metrics] flag
   dumps. Histograms are fixed-memory log-bucket sketches
   ({!Histogram}), so a registry's size depends on how many metrics it
   names, never on how many samples they have seen.

   All mutation paths are safe to call from any domain: counters are
   [Atomic], histograms carry their own shard locks, and the name table is
   guarded by the registry mutex. Hot paths resolve their handles once
   ([counter], [gauge], [histogram]) and skip the name lookup. *)

type counter = int Atomic.t

type gauge_value = Set of float | Callback of (unit -> float)

type gauge = { mutable value : gauge_value }

type batch_counters = { jobs : counter; items : counter; chunks : counter }

type t = {
  lock : Mutex.t;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  batch : batch_counters option Atomic.t;  (* resolved on first [Batch.map] *)
}

let create () =
  {
    lock = Mutex.create ();
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    batch = Atomic.make None;
  }

let global = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let intern table lock name fresh =
  Mutex.lock lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lock)
    (fun () ->
      match Hashtbl.find_opt table name with
      | Some v -> v
      | None ->
        let v = fresh () in
        Hashtbl.replace table name v;
        v)

let counter t name = intern t.counters t.lock name (fun () -> Atomic.make 0)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)

let incr_named ?by t name = incr ?by (counter t name)

let count c = Atomic.get c

(* Interned by name like any counter, so two domains racing here build
   records of the same handles and either may win. *)
let batch_counters t =
  match Atomic.get t.batch with
  | Some b -> b
  | None ->
    let b =
      {
        jobs = counter t "batch.jobs";
        items = counter t "batch.items";
        chunks = counter t "batch.chunks";
      }
    in
    Atomic.set t.batch (Some b);
    b

let gauge t name = intern t.gauges t.lock name (fun () -> { value = Set 0.0 })

let set_gauge g v = g.value <- Set v

let register_gauge t name f =
  let g = gauge t name in
  g.value <- Callback f

let read_gauge g = match g.value with Set v -> v | Callback f -> f ()

let histogram t name = intern t.histograms t.lock name (fun () -> Histogram.create ())

let observe t name x = Histogram.observe (histogram t name) x

(* Bridge for [Obs.Trace.set_observer]: every completed span feeds a
   duration histogram named after it, so traces and metrics stay in one
   registry without [obs] depending on [runtime]. *)
let span_observer t ~name ~dur_s = observe t ("span." ^ name) dur_s

(* --- dump ------------------------------------------------------------- *)

let sorted_bindings table = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let histograms t =
  locked t (fun () -> sorted_bindings t.histograms)
  |> List.map (fun (name, h) -> (name, Histogram.summarize h))

let counters t = locked t (fun () -> sorted_bindings t.counters) |> List.map (fun (n, c) -> (n, count c))

let gauges t = locked t (fun () -> sorted_bindings t.gauges) |> List.map (fun (n, g) -> (n, read_gauge g))

let dump t =
  let counters, gauges, histograms =
    locked t (fun () ->
        (sorted_bindings t.counters, sorted_bindings t.gauges, sorted_bindings t.histograms))
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, c) -> Buffer.add_string buf (Printf.sprintf "counter %-32s %d\n" name (count c)))
    counters;
  List.iter
    (fun (name, g) ->
      Buffer.add_string buf (Printf.sprintf "gauge   %-32s %.6g\n" name (read_gauge g)))
    gauges;
  List.iter
    (fun (name, h) ->
      let s = Histogram.summarize h in
      Buffer.add_string buf
        (Printf.sprintf
           "hist    %-32s n=%d mean=%.6g min=%.6g p50=%.6g p95=%.6g p99=%.6g max=%.6g\n" name
           s.Histogram.n s.Histogram.mean s.Histogram.min s.Histogram.p50 s.Histogram.p95
           s.Histogram.p99 s.Histogram.max))
    histograms;
  Buffer.contents buf

let reset t =
  locked t (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c 0) t.counters;
      Hashtbl.iter (fun _ g -> match g.value with Set _ -> g.value <- Set 0.0 | Callback _ -> ()) t.gauges;
      Hashtbl.iter (fun _ h -> Histogram.reset h) t.histograms)

(* Wire the library-wide work counters (simulator sweeps, espresso work)
   into a registry as callback gauges. *)
let register_library_gauges t =
  register_gauge t "sim.phases_total" (fun () -> float_of_int (Circuit.Sim.phases_total ()));
  register_gauge t "sim.sweeps_total" (fun () -> float_of_int (Circuit.Sim.sweeps_total ()));
  register_gauge t "espresso.minimize_calls" (fun () ->
      float_of_int (Espresso.Minimize.calls_total ()));
  (* LAST_GASP rounds [minimize_harder] accepted; [minimize] adds none. *)
  register_gauge t "espresso.minimize_iterations" (fun () ->
      float_of_int (Espresso.Minimize.iterations_total ()));
  register_gauge t "espresso.expand_cubes" (fun () ->
      float_of_int (Espresso.Minimize.expand_cubes_total ()));
  (* Fraction of the old per-position off-set rescans the blocker-count
     cache avoids (0 until expand has run). *)
  register_gauge t "espresso.blocker_cache_savings" (fun () ->
      let naive = Espresso.Minimize.blocker_scans_naive_total () in
      if naive = 0 then 0.0
      else
        1.0
        -. (float_of_int (Espresso.Minimize.blocker_scans_total ())
           /. float_of_int naive));
  register_gauge t "cover.scc_calls" (fun () ->
      float_of_int (Logic.Cover.scc_calls_total ()));
  register_gauge t "cover.scc_containment_checks" (fun () ->
      float_of_int (Logic.Cover.scc_checks_total ()));
  (* Fraction of all-pairs containment tests the sort-based
     single-cube-containment skipped. *)
  register_gauge t "cover.scc_prune_rate" (fun () ->
      let pairs = Logic.Cover.scc_pairs_total () in
      if pairs = 0 then 0.0
      else
        1.0
        -. (float_of_int (Logic.Cover.scc_checks_total ()) /. float_of_int pairs))
