(* Deterministic fan-out/fan-in of evaluation jobs.

   Work is cut into contiguous chunks, each chunk becomes one pool task,
   and results are written back by input index — so the merged output is
   bit-identical to a sequential run no matter how the chunks interleave
   across domains. Monte-Carlo fan-out derives one rng per trial from the
   caller's seed rng by sequential splitting; a trial's stream depends
   only on its index, never on which domain runs it.

   Exceptions raised inside items are re-raised at the fan-in point
   wrapped in [Item_failed] carrying the item's index; when several items
   fail, the smallest index wins — again matching what a sequential run
   would have hit first. *)

module Pla = Cnfet.Pla
module Cascade = Cnfet.Cascade
module Wpla = Cnfet.Wpla

exception Item_failed of { index : int; exn : exn }

let () =
  Printexc.register_printer (function
    | Item_failed { index; exn } ->
      Some (Printf.sprintf "Batch.Item_failed (item %d): %s" index (Printexc.to_string exn))
    | _ -> None)

let default_chunk ~jobs n = max 1 (n / (4 * max 1 jobs))

let map ?chunk ?metrics pool f items =
  let n = Array.length items in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with Some c -> max 1 c | None -> default_chunk ~jobs:(Pool.jobs pool) n
    in
    let n_chunks = (n + chunk - 1) / chunk in
    Obs.Span.with_
      ~args:[ ("items", string_of_int n); ("chunks", string_of_int n_chunks) ]
      "batch.map"
    @@ fun () ->
    (match metrics with
    | Some m ->
      let c = Metrics.batch_counters m in
      Metrics.incr c.Metrics.jobs;
      Metrics.incr ~by:n c.Metrics.items;
      Metrics.incr ~by:n_chunks c.Metrics.chunks
    | None -> ());
    let results = Array.make n None in
    let failure = Array.make n_chunks None in
    let thunks =
      Array.init n_chunks (fun c ->
          let lo = c * chunk in
          let hi = min n (lo + chunk) in
          fun () ->
            Obs.Span.with_ "batch.chunk" @@ fun () ->
            (* Record the chunk's first failing index but keep the chunk
               task itself from raising, so every chunk completes and the
               smallest failing index across the whole batch can win. *)
            let rec go i =
              if i < hi then begin
                (match f items.(i) with
                | v -> results.(i) <- Some v
                | exception e ->
                  if failure.(c) = None then failure.(c) <- Some (i, e));
                go (i + 1)
              end
            in
            go lo)
    in
    ignore (Pool.run_all pool thunks);
    let first_failure =
      Array.fold_left
        (fun acc fl ->
          match (acc, fl) with
          | Some (i, _), Some (j, _) when i <= j -> acc
          | _, Some _ -> fl
          | _, None -> acc)
        None failure
    in
    match first_failure with
    | Some (index, exn) -> raise (Item_failed { index; exn })
    | None -> Array.map Option.get results
  end

let mapi ?chunk ?metrics pool f items =
  map ?chunk ?metrics pool (fun (i, x) -> f i x) (Array.mapi (fun i x -> (i, x)) items)

(* --- input-vector sweeps ------------------------------------------------ *)

let minterm n_in m = Array.init n_in (fun i -> m land (1 lsl i) <> 0)

let sweep ?chunk ?metrics pool ~n_in f =
  if n_in < 0 || n_in > 24 then invalid_arg "Batch.sweep: n_in must be in 0..24";
  map ?chunk ?metrics pool (fun m -> f (minterm n_in m)) (Array.init (1 lsl n_in) Fun.id)

let sweep_pla ?chunk ?metrics pool pla =
  sweep ?chunk ?metrics pool ~n_in:(Pla.num_inputs pla) (Pla.eval pla)

(* --- blocked (bit-sliced) fan-out ---------------------------------------- *)

(* One pool item per 63-vector block, the last one partial ([lanes <
   63]): [block_of ~first ~lanes] packs vectors [first .. first+lanes-1]
   into lane words, one sweep of the compiled planes evaluates them all,
   and fan-in untransposes. [map] writes results back by block index, so
   the merged output is in vector order whatever the interleaving. *)
let n_blocks n = (n + Cache.lanes_per_word - 1) / Cache.lanes_per_word

let eval_blocks ?chunk ?metrics pool compiled n block_of =
  let lanes_max = Cache.lanes_per_word in
  map ?chunk ?metrics pool
    (fun b ->
      let first = b * lanes_max in
      let lanes = min lanes_max (n - first) in
      Cache.untranspose (Cache.eval_block compiled (block_of ~first ~lanes)) ~lanes)
    (Array.init (n_blocks n) Fun.id)
  |> Array.to_list |> Array.concat

let eval_batch ?chunk ?metrics pool compiled vectors =
  let n = Array.length vectors in
  Obs.Span.with_
    ~args:[ ("vectors", string_of_int n); ("blocks", string_of_int (n_blocks n)) ]
    "batch.eval_batch"
  @@ fun () -> eval_blocks ?chunk ?metrics pool compiled n (Cache.transpose vectors)

let sweep_compiled ?chunk ?metrics pool compiled =
  let n_in = Pla.num_inputs (Cache.pla compiled) in
  if n_in < 0 || n_in > 24 then invalid_arg "Batch.sweep_compiled: n_in must be in 0..24";
  eval_blocks ?chunk ?metrics pool compiled (1 lsl n_in) (fun ~first ~lanes ->
      (* Pack minterms directly: lane v of input column c is bit c of
         minterm (first + v). *)
      let words =
        Array.init n_in (fun c ->
            let w = ref 0 in
            for v = 0 to lanes - 1 do
              if (first + v) land (1 lsl c) <> 0 then w := !w lor (1 lsl v)
            done;
            !w)
      in
      { Cache.words; lanes })

let sweep_pla_hw ?chunk ?metrics pool pla =
  let hw = Pla.build_hw pla in
  sweep ?chunk ?metrics pool ~n_in:(Pla.num_inputs pla) (Pla.simulate_hw hw)

let sweep_cascade ?chunk ?metrics pool cascade =
  sweep ?chunk ?metrics pool ~n_in:(Cascade.num_inputs cascade) (Cascade.eval cascade)

let sweep_wpla ?chunk ?metrics pool wpla =
  sweep ?chunk ?metrics pool ~n_in:(Wpla.num_inputs wpla) (Wpla.eval wpla)

(* --- Monte-Carlo fan-out ------------------------------------------------ *)

(* Explicit loop: split order must be by trial index for reproducibility
   (Array.init's application order is unspecified). *)
let split_rngs rng n =
  if n = 0 then [||]
  else begin
    let a = Array.make n rng in
    for i = 0 to n - 1 do
      a.(i) <- Util.Rng.split rng
    done;
    a
  end

let monte_carlo ?chunk ?metrics pool rng ~trials f =
  if trials < 0 then invalid_arg "Batch.monte_carlo";
  map ?chunk ?metrics pool (fun r -> f r) (split_rngs rng trials)

let yield_estimate ?chunk ?metrics pool rng ?(trials = 200) ?(spare_rows = 2) ?closed_share
    pla ~defect_rate =
  let outcomes =
    monte_carlo ?chunk ?metrics pool rng ~trials (fun r ->
        Fault.Yield.trial r ~spare_rows ?closed_share pla ~defect_rate)
  in
  Fault.Yield.point_of_outcomes ~defect_rate outcomes

let yield_sweep ?chunk ?metrics pool rng ?trials ?spare_rows ?closed_share pla ~rates =
  List.map
    (fun defect_rate ->
      yield_estimate ?chunk ?metrics pool rng ?trials ?spare_rows ?closed_share pla
        ~defect_rate)
    rates

let variation_monte_carlo ?chunk ?metrics pool rng ?(trials = 300) ?sigma ?params tech
    profile =
  let delays =
    monte_carlo ?chunk ?metrics pool rng ~trials (fun r ->
        Cnfet.Pla_timing.trial_delay r ?sigma ?params tech profile)
  in
  Cnfet.Pla_timing.variation_of_delays ?params tech profile (Array.to_list delays)
