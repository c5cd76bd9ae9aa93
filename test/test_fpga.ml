(* Tests for the FPGA substrate: architecture derivation, design
   generation and inverter absorption, placement, routing, timing. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Arch -------------------------------------------------------------------- *)

let test_arch_standard () =
  let a = Fpga.Arch.standard ~grid:10 in
  checki "sites" 100 (Fpga.Arch.sites a);
  checki "two wires per connection" 2 a.Fpga.Arch.wires_per_connection;
  checkb "occupancy" true (Fpga.Arch.occupancy a ~used:50 = 0.5)

let test_arch_cnfet_derived () =
  let s = Fpga.Arch.standard ~grid:17 in
  let c = Fpga.Arch.cnfet ~grid:17 in
  checki "grid floor(17*sqrt2)" 24 c.Fpga.Arch.grid;
  checki "one wire per connection" 1 c.Fpga.Arch.wires_per_connection;
  checkb "pitch shrinks by sqrt2" true
    (Float.abs ((s.Fpga.Arch.clb_pitch /. c.Fpga.Arch.clb_pitch) -. sqrt 2.0) < 1e-9);
  checkb "segment RC shrinks" true
    (c.Fpga.Arch.seg_resistance < s.Fpga.Arch.seg_resistance
    && c.Fpga.Arch.seg_capacitance < s.Fpga.Arch.seg_capacitance);
  checkb "roughly double the sites" true
    (let r = float_of_int (Fpga.Arch.sites c) /. float_of_int (Fpga.Arch.sites s) in
     r > 1.85 && r <= 2.05)

let test_arch_clb_delay_asymmetry () =
  (* Classical PLA rows span 2k+m columns vs k+m: 1.75x for k=9, m=3. *)
  let s = Fpga.Arch.standard ~grid:10 and c = Fpga.Arch.cnfet ~grid:10 in
  let ratio = s.Fpga.Arch.clb_delay /. c.Fpga.Arch.clb_delay in
  checkb "1.75x slower classical CLB" true (Float.abs (ratio -. 1.75) < 1e-9)

(* --- Design ------------------------------------------------------------------- *)

let mk_design seed =
  Fpga.Design.random (Util.Rng.create seed) ~n_pi:8 ~n_blocks:60 ~fanin:4
    ~inverter_fraction:0.1 ~layers:6 ()

let test_design_valid_and_sized () =
  let d = mk_design 1 in
  checki "block count" 60 (Fpga.Design.block_count d);
  checki "depth = layers" 6 (Fpga.Design.depth d);
  checkb "has inverters" true (Fpga.Design.inverter_count d > 0);
  checkb "connections counted" true
    (Fpga.Design.connection_count d > Fpga.Design.block_count d)

let test_design_deterministic () =
  let d1 = mk_design 7 and d2 = mk_design 7 in
  checkb "same seed same design" true (d1 = d2);
  let d3 = mk_design 8 in
  checkb "different seed differs" true (d1 <> d3)

let test_design_inverter_fraction_deterministic () =
  let d1 = mk_design 1 and d2 = mk_design 99 in
  checki "stride placement independent of rng" (Fpga.Design.inverter_count d1)
    (Fpga.Design.inverter_count d2)

let test_absorb_inverters () =
  let d = mk_design 3 in
  let inv = Fpga.Design.inverter_count d in
  let a = Fpga.Design.absorb_inverters d in
  checki "all inverters gone" 0 (Fpga.Design.inverter_count a);
  checki "block count drops by inverters" (Fpga.Design.block_count d - inv)
    (Fpga.Design.block_count a);
  checkb "validates" true
    (try
       Fpga.Design.validate a;
       true
     with Invalid_argument _ -> false);
  checkb "depth does not grow" true (Fpga.Design.depth a <= Fpga.Design.depth d)

let test_absorb_inverter_chain () =
  (* PI -> inv -> inv -> block: both inverters collapse to the PI. *)
  let open Fpga.Design in
  let d =
    {
      n_pi = 1;
      blocks =
        [|
          { is_inverter = true; fanin = [| Pi 0 |] };
          { is_inverter = true; fanin = [| Block 0 |] };
          { is_inverter = false; fanin = [| Block 1; Pi 0 |] };
        |];
      pos = [| Block 2 |];
    }
  in
  validate d;
  let a = absorb_inverters d in
  checki "one block left" 1 (block_count a);
  checkb "fanin rewired to PI" true (a.blocks.(0).fanin = [| Pi 0; Pi 0 |])

let test_design_rejects_forward_reference () =
  let open Fpga.Design in
  let bad =
    { n_pi = 1; blocks = [| { is_inverter = false; fanin = [| Block 1 |] } |]; pos = [||] }
  in
  checkb "forward reference rejected" true
    (try
       validate bad;
       false
     with Invalid_argument _ -> true)

(* --- Place ----------------------------------------------------------------------- *)

let test_place_legal () =
  let d = mk_design 5 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 42) a d in
  (* All blocks inside the grid, all on distinct sites. *)
  let seen = Hashtbl.create 64 in
  for b = 0 to Fpga.Design.block_count d - 1 do
    let x, y = Fpga.Place.block_loc p b in
    checkb "inside grid" true (x >= 0 && x < 9 && y >= 0 && y < 9);
    checkb "distinct site" false (Hashtbl.mem seen (x, y));
    Hashtbl.replace seen (x, y) ()
  done

let test_place_improves_over_random () =
  (* The annealer must substantially beat the expected random wirelength. *)
  let d = mk_design 6 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 1) a d in
  let wl = Fpga.Place.total_wirelength p in
  (* Random placement on a 9-grid has mean distance ~6 per connection. *)
  let conns = Fpga.Design.connection_count d in
  checkb "beats random by a wide margin" true (wl < 5 * conns)

let test_place_rejects_oversize () =
  let d = mk_design 2 in
  let a = Fpga.Arch.standard ~grid:7 in
  (* 60 blocks on 49 sites. *)
  checkb "raises" true
    (try
       ignore (Fpga.Place.place (Util.Rng.create 1) a d);
       false
     with Invalid_argument _ -> true)

let test_place_pads_on_ring () =
  let d = mk_design 4 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 9) a d in
  for i = 0 to d.Fpga.Design.n_pi - 1 do
    let x, y = Fpga.Place.pi_loc p i in
    checkb "pad on perimeter ring" true (x = -1 || x = 9 || y = -1 || y = 9)
  done

let test_place_connections_cover_fanins () =
  let d = mk_design 8 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 2) a d in
  checki "one connection per fanin + POs" (Fpga.Design.connection_count d)
    (List.length (Fpga.Place.connections p))

(* A design with no blocks: nothing to anneal, and its two PI-to-PO
   connections still place, route and time. *)
let test_place_no_blocks () =
  let d = { Fpga.Design.n_pi = 2; blocks = [||]; pos = [| Fpga.Design.Pi 0; Fpga.Design.Pi 1 |] } in
  let a = Fpga.Arch.cnfet ~grid:3 in
  let p = Fpga.Place.place (Util.Rng.create 1) a d in
  checki "two connections" 2 (List.length (Fpga.Place.connections p));
  let o = Fpga.Flow.run (Util.Rng.create 1) a d in
  checki "wirelength" 18 o.Fpga.Flow.wirelength;
  checki "one routing iteration" 1 o.Fpga.Flow.route_iterations;
  checki "no overflow" 0 o.Fpga.Flow.route_overflow;
  checkb "finite frequency" true (Float.is_finite o.Fpga.Flow.timing.Fpga.Timing.frequency_hz)

(* --- Route ------------------------------------------------------------------------ *)

let routed_setup seed =
  let d = mk_design seed in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create seed) a d in
  (p, Fpga.Route.route p)

let test_route_all_connections () =
  let p, r = routed_setup 10 in
  checki "every connection routed" (List.length (Fpga.Place.connections p))
    (List.length r.Fpga.Route.routes)

let test_route_paths_connect_endpoints () =
  let p, r = routed_setup 11 in
  List.iter
    (fun routed ->
      let path = routed.Fpga.Route.path in
      let src = Fpga.Place.source_loc p routed.Fpga.Route.connection.Fpga.Place.src in
      let dst = routed.Fpga.Route.connection.Fpga.Place.dst_loc in
      checkb "starts at source" true (List.hd path = src);
      checkb "ends at sink" true (List.nth path (List.length path - 1) = dst);
      (* consecutive cells adjacent *)
      let rec adjacent = function
        | (x0, y0) :: ((x1, y1) :: _ as rest) ->
          abs (x0 - x1) + abs (y0 - y1) = 1 && adjacent rest
        | _ -> true
      in
      checkb "path is connected" true (adjacent path))
    r.Fpga.Route.routes

let test_route_converges_uncongested () =
  (* A small design on a big device routes without overflow immediately. *)
  let d = Fpga.Design.random (Util.Rng.create 1) ~n_pi:4 ~n_blocks:10 ~layers:3 () in
  let a = Fpga.Arch.standard ~grid:12 in
  let p = Fpga.Place.place (Util.Rng.create 1) a d in
  let r = Fpga.Route.route p in
  checki "no overflow" 0 r.Fpga.Route.overflow;
  checki "single iteration" 1 r.Fpga.Route.iterations

let test_route_histogram_consistent () =
  let _, r = routed_setup 12 in
  let total_cells = List.fold_left (fun acc (_, n) -> acc + n) 0 r.Fpga.Route.usage_histogram in
  checki "histogram covers all cells" (11 * 11) total_cells
  (* grid 9 + pad ring = 11x11 cells *)

let test_route_usage_at_matches_max () =
  let _, r = routed_setup 13 in
  let best = ref 0 in
  for x = -1 to 9 do
    for y = -1 to 9 do
      best := max !best (r.Fpga.Route.usage_at (x, y))
    done
  done;
  checki "max usage consistent" r.Fpga.Route.max_usage !best

let test_route_net_trees_valid_paths () =
  let d = mk_design 24 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 24) a d in
  let r = Fpga.Route.route ~share_nets:true p in
  List.iter
    (fun routed ->
      let path = routed.Fpga.Route.path in
      let src = Fpga.Place.source_loc p routed.Fpga.Route.connection.Fpga.Place.src in
      let dst = routed.Fpga.Route.connection.Fpga.Place.dst_loc in
      checkb "starts at source" true (List.hd path = src);
      checkb "ends at sink" true (List.nth path (List.length path - 1) = dst);
      let rec adjacent = function
        | (x0, y0) :: ((x1, y1) :: _ as rest) ->
          abs (x0 - x1) + abs (y0 - y1) = 1 && adjacent rest
        | _ -> true
      in
      checkb "connected path" true (adjacent path))
    r.Fpga.Route.routes

let test_route_net_trees_reduce_demand () =
  (* Fanout sharing must lower peak channel usage on a fanout-heavy
     design. *)
  let d = mk_design 25 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 25) a d in
  let per_conn = Fpga.Route.route p in
  let trees = Fpga.Route.route ~share_nets:true p in
  checkb "trees never increase peak usage much" true
    (trees.Fpga.Route.max_usage <= per_conn.Fpga.Route.max_usage);
  checki "still no overflow" 0 trees.Fpga.Route.overflow

let test_route_capacity_override () =
  (* Tiny capacity forces overflow that the default capacity avoids. *)
  let _, r_default = routed_setup 16 in
  checki "default capacity routes" 0 r_default.Fpga.Route.overflow;
  let d = mk_design 16 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 16) a d in
  let r_tight = Fpga.Route.route ~capacity:2 p in
  checkb "capacity 2 overflows" true (r_tight.Fpga.Route.overflow > 0)

let test_minimum_channel_width () =
  let d = mk_design 17 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 17) a d in
  match Fpga.Route.minimum_channel_width p with
  | None -> Alcotest.fail "design must be routable at 64 tracks"
  | Some w ->
    checkb "positive width" true (w >= 1);
    (* The found width is feasible and w-1 is not. *)
    checki "w feasible" 0 (Fpga.Route.route ~capacity:(2 * w) p).Fpga.Route.overflow;
    if w > 1 then
      checkb "w-1 infeasible" true
        ((Fpga.Route.route ~capacity:(2 * (w - 1)) p).Fpga.Route.overflow > 0)

let test_channel_width_standard_vs_cnfet () =
  (* The same logical design demands roughly twice the tracks on the
     classical fabric (two wires per connection). *)
  let d = Fpga.Design.random (Util.Rng.create 21) ~n_pi:12 ~n_blocks:60 ~layers:8 () in
  let std = Fpga.Arch.standard ~grid:8 in
  let p_std = Fpga.Place.place (Util.Rng.create 5) std d in
  let cn = Fpga.Arch.cnfet ~grid:8 in
  let p_cn = Fpga.Place.place (Util.Rng.create 5) cn (Fpga.Design.absorb_inverters d) in
  match (Fpga.Route.minimum_channel_width p_std, Fpga.Route.minimum_channel_width p_cn) with
  | Some w_std, Some w_cn ->
    checkb "classical needs clearly more tracks" true
      (float_of_int w_std >= 1.5 *. float_of_int w_cn)
  | _ -> Alcotest.fail "both must route at 64 tracks"

(* --- Timing ------------------------------------------------------------------------- *)

let test_timing_positive_and_finite () =
  let p, r = routed_setup 14 in
  let t = Fpga.Timing.analyze p r in
  checkb "positive critical path" true (t.Fpga.Timing.critical_path > 0.0);
  checkb "finite frequency" true (Float.is_finite t.Fpga.Timing.frequency_hz);
  checkb "worst >= mean" true
    (t.Fpga.Timing.worst_connection >= t.Fpga.Timing.mean_connection);
  checki "levels" 6 t.Fpga.Timing.logic_levels

let test_timing_critical_at_least_levels () =
  let p, r = routed_setup 15 in
  let a = Fpga.Place.arch p in
  let t = Fpga.Timing.analyze p r in
  checkb "critical ≥ levels × clb_delay" true
    (t.Fpga.Timing.critical_path
    >= float_of_int t.Fpga.Timing.logic_levels *. a.Fpga.Arch.clb_delay)

let test_timing_connection_delay_monotone () =
  let a = Fpga.Arch.standard ~grid:9 in
  let d k = Fpga.Timing.connection_delay a ~hops:k in
  checkb "monotone in hops" true (d 10 > d 5 && d 5 > d 1)

let test_timing_load_raises_delay () =
  let a = Fpga.Arch.standard ~grid:9 in
  let path = [ (0, 0); (1, 0); (2, 0) ] in
  let unloaded = Fpga.Timing.path_delay a ~usage_at:(fun _ -> 0) ~capacity:28 path in
  let loaded = Fpga.Timing.path_delay a ~usage_at:(fun _ -> 28) ~capacity:28 path in
  checkb "full switch boxes are slower" true (loaded > 1.5 *. unloaded)

(* --- Map (technology mapping) ---------------------------------------------------------- *)

let test_map_fits_budget () =
  List.iter
    (fun k ->
      let m = Fpga.Map.map_cover ~clb_inputs:k (Mcnc.Generators.rd ~n:7) in
      checkb "respects input budget" true (Fpga.Map.max_block_inputs m <= k))
    [ 3; 4; 5; 6 ]

let test_map_correct_bdd_and_eval () =
  let cases =
    [ Mcnc.Generators.rd ~n:5; Mcnc.Generators.comparator ~bits:3; Mcnc.Generators.alu_slice () ]
  in
  List.iter
    (fun f ->
      let m = Fpga.Map.map_cover ~clb_inputs:4 f in
      checkb "BDD equivalence" true (Fpga.Map.verify_against m f);
      let n_in = Logic.Cover.num_inputs f in
      let ok = ref true in
      for mm = 0 to (1 lsl n_in) - 1 do
        let pis = Array.init n_in (fun i -> mm land (1 lsl i) <> 0) in
        let want = Logic.Cover.eval f pis in
        let got = Fpga.Map.eval m pis in
        for o = 0 to Logic.Cover.num_outputs f - 1 do
          if got.(o) <> Util.Bitvec.get want o then ok := false
        done
      done;
      checkb "exhaustive equivalence" true !ok)
    cases

let test_map_no_decomposition_when_fits () =
  (* cmp3 has 6 inputs: at k=6 every output is a single block. *)
  let f = Mcnc.Generators.comparator ~bits:3 in
  let m = Fpga.Map.map_cover ~clb_inputs:6 f in
  checki "one block per output" 3 (Fpga.Map.block_count m);
  checki "single level" 1 (Fpga.Map.levels m)

let test_map_smaller_budget_more_blocks () =
  let f = Mcnc.Generators.rd ~n:7 in
  let b k = Fpga.Map.block_count (Fpga.Map.map_cover ~clb_inputs:k f) in
  checkb "monotone-ish growth" true (b 3 > b 4 && b 4 > b 6)

let test_map_shares_cofactors () =
  (* rd outputs share cofactor structure; the memo should kick in: fewer
     blocks than a share-nothing mapping would need. With k=4 on rd53
     (5 inputs, 3 outputs) expect well under 3 × (1 + 2 + 4) blocks. *)
  let m = Fpga.Map.map_cover ~clb_inputs:4 (Mcnc.Generators.rd ~n:5) in
  checkb "sharing keeps the block count low" true (Fpga.Map.block_count m <= 12)

let test_map_constant_output () =
  let f = Logic.Expr.to_cover_multi ~n_in:4 [ Logic.Expr.Const true; Logic.Expr.(v 0) ] in
  let m = Fpga.Map.map_cover f in
  checkb "constant output correct" true (Fpga.Map.verify_against m f)

let test_map_to_design_valid () =
  let f = Mcnc.Generators.rd ~n:7 in
  let m = Fpga.Map.map_cover ~clb_inputs:4 f in
  let d = Fpga.Map.to_design m in
  checki "block counts agree" (Fpga.Map.block_count m) (Fpga.Design.block_count d);
  (* The mapped design places and routes on a small device. *)
  let arch = Fpga.Arch.standard ~grid:8 in
  let p = Fpga.Place.place (Util.Rng.create 3) arch d in
  let r = Fpga.Route.route p in
  checki "routes clean" 0 r.Fpga.Route.overflow

let test_map_blif_export () =
  let f = Mcnc.Generators.rd ~n:5 in
  let m = Fpga.Map.map_cover ~clb_inputs:3 f in
  let b = Fpga.Map.to_blif ~name:"rd53" m in
  let b' = Logic.Blif.parse (Logic.Blif.to_string b) in
  checkb "BLIF roundtrip equals source function" true
    (Logic.Cover.equivalent f (Logic.Blif.to_cover b'))

let test_timing_driven_no_regression () =
  (* run_timing_driven keeps the best placement, so it can never be slower
     than the plain run with the same seed. *)
  let m = Fpga.Map.map_cover ~clb_inputs:3 (Mcnc.Generators.rd ~n:7) in
  let d = Fpga.Map.to_design m in
  let a = Fpga.Arch.standard ~grid:8 in
  let base = Fpga.Flow.run (Util.Rng.create 1) a d in
  let td = Fpga.Flow.run_timing_driven ~rounds:2 (Util.Rng.create 1) a d in
  checkb "no regression" true
    (td.Fpga.Flow.timing.Fpga.Timing.critical_path
    <= base.Fpga.Flow.timing.Fpga.Timing.critical_path +. 1e-15)

let test_criticalities_range_and_peak () =
  let d = mk_design 19 in
  let a = Fpga.Arch.standard ~grid:9 in
  let p = Fpga.Place.place (Util.Rng.create 19) a d in
  let r = Fpga.Route.route p in
  let crits = Fpga.Timing.criticalities p r in
  checki "one criticality per connection" (List.length (Fpga.Place.connections p))
    (Array.length crits);
  Array.iter (fun c -> checkb "in [0,1]" true (c >= 0.0 && c <= 1.0)) crits;
  checkb "critical path has criticality 1" true
    (Array.exists (fun c -> c > 0.999) crits)

let test_place_weights_shorten_heavy_connections () =
  (* Make one PO connection extremely heavy: its length should not exceed
     the unweighted one. *)
  let d = mk_design 20 in
  let a = Fpga.Arch.standard ~grid:9 in
  let n_conns = Fpga.Design.connection_count d in
  let heavy = Array.make n_conns 1.0 in
  heavy.(n_conns - 1) <- 500.0;
  let len placement =
    let conns = Fpga.Place.connections placement in
    let last = List.nth conns (n_conns - 1) in
    let sx, sy = Fpga.Place.source_loc placement last.Fpga.Place.src in
    let dx, dy = last.Fpga.Place.dst_loc in
    abs (sx - dx) + abs (sy - dy)
  in
  let base = Fpga.Place.place (Util.Rng.create 4) a d in
  let weighted = Fpga.Place.place ~weights:heavy (Util.Rng.create 4) a d in
  checkb "heavy connection pulled short" true (len weighted <= len base)

let test_map_rejects_tiny_budget () =
  checkb "k=2 rejected" true
    (try
       ignore (Fpga.Map.map_cover ~clb_inputs:2 (Mcnc.Generators.rd ~n:5));
       false
     with Invalid_argument _ -> true)

(* --- Flow (scaled-down Table 2 shape) ------------------------------------------------- *)

let test_flow_speedup_shape () =
  (* A small instance of the Table 2 experiment: the CNFET fabric must be
     substantially faster and around half as occupied. *)
  let t = Fpga.Flow.table2_experiment ~seed:5 ~grid:10 () in
  let s = t.Fpga.Flow.standard and c = t.Fpga.Flow.cnfet in
  checkb "standard nearly full" true (s.Fpga.Flow.occupancy > 0.95);
  checkb "cnfet around half" true
    (c.Fpga.Flow.occupancy > 0.35 && c.Fpga.Flow.occupancy < 0.55);
  checkb "speedup > 1.5x" true (t.Fpga.Flow.speedup > 1.5);
  checkb "routable" true (c.Fpga.Flow.route_overflow = 0)

let () =
  Alcotest.run "fpga"
    [
      ( "arch",
        [
          Alcotest.test_case "standard" `Quick test_arch_standard;
          Alcotest.test_case "cnfet derived" `Quick test_arch_cnfet_derived;
          Alcotest.test_case "clb delay asymmetry" `Quick test_arch_clb_delay_asymmetry;
        ] );
      ( "design",
        [
          Alcotest.test_case "valid and sized" `Quick test_design_valid_and_sized;
          Alcotest.test_case "deterministic" `Quick test_design_deterministic;
          Alcotest.test_case "inverter stride" `Quick test_design_inverter_fraction_deterministic;
          Alcotest.test_case "absorb inverters" `Quick test_absorb_inverters;
          Alcotest.test_case "absorb chains" `Quick test_absorb_inverter_chain;
          Alcotest.test_case "rejects forward reference" `Quick
            test_design_rejects_forward_reference;
        ] );
      ( "place",
        [
          Alcotest.test_case "legal" `Quick test_place_legal;
          Alcotest.test_case "improves over random" `Quick test_place_improves_over_random;
          Alcotest.test_case "rejects oversize" `Quick test_place_rejects_oversize;
          Alcotest.test_case "pads on ring" `Quick test_place_pads_on_ring;
          Alcotest.test_case "connections cover fanins" `Quick
            test_place_connections_cover_fanins;
          Alcotest.test_case "no blocks" `Quick test_place_no_blocks;
        ] );
      ( "route",
        [
          Alcotest.test_case "all connections" `Quick test_route_all_connections;
          Alcotest.test_case "paths connect endpoints" `Quick
            test_route_paths_connect_endpoints;
          Alcotest.test_case "converges uncongested" `Quick test_route_converges_uncongested;
          Alcotest.test_case "histogram consistent" `Quick test_route_histogram_consistent;
          Alcotest.test_case "usage_at matches max" `Quick test_route_usage_at_matches_max;
          Alcotest.test_case "net trees valid paths" `Quick test_route_net_trees_valid_paths;
          Alcotest.test_case "net trees reduce demand" `Quick
            test_route_net_trees_reduce_demand;
          Alcotest.test_case "capacity override" `Quick test_route_capacity_override;
          Alcotest.test_case "minimum channel width" `Quick test_minimum_channel_width;
          Alcotest.test_case "channel width std vs cnfet" `Slow
            test_channel_width_standard_vs_cnfet;
        ] );
      ( "timing",
        [
          Alcotest.test_case "positive and finite" `Quick test_timing_positive_and_finite;
          Alcotest.test_case "critical ≥ logic depth" `Quick
            test_timing_critical_at_least_levels;
          Alcotest.test_case "monotone in hops" `Quick test_timing_connection_delay_monotone;
          Alcotest.test_case "loading raises delay" `Quick test_timing_load_raises_delay;
        ] );
      ( "map",
        [
          Alcotest.test_case "fits budget" `Quick test_map_fits_budget;
          Alcotest.test_case "correct (bdd + exhaustive)" `Quick test_map_correct_bdd_and_eval;
          Alcotest.test_case "no decomposition when fits" `Quick
            test_map_no_decomposition_when_fits;
          Alcotest.test_case "smaller budget more blocks" `Quick
            test_map_smaller_budget_more_blocks;
          Alcotest.test_case "shares cofactors" `Quick test_map_shares_cofactors;
          Alcotest.test_case "constant output" `Quick test_map_constant_output;
          Alcotest.test_case "to_design valid + routable" `Quick test_map_to_design_valid;
          Alcotest.test_case "BLIF export" `Quick test_map_blif_export;
          Alcotest.test_case "rejects tiny budget" `Quick test_map_rejects_tiny_budget;
        ] );
      ( "timing-driven",
        [
          Alcotest.test_case "no regression" `Quick test_timing_driven_no_regression;
          Alcotest.test_case "criticalities sane" `Quick test_criticalities_range_and_peak;
          Alcotest.test_case "weights steer placement" `Quick
            test_place_weights_shorten_heavy_connections;
        ] );
      ( "flow",
        [ Alcotest.test_case "Table 2 shape (small)" `Slow test_flow_speedup_shape ] );
    ]
