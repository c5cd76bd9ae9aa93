(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the ablations called out in DESIGN.md, then runs
   Bechamel micro-benchmarks of the core algorithms.

     dune exec bench/main.exe              -- run everything
     dune exec bench/main.exe -- table1 fig2
                                           -- run selected sections

   Sections: fig1 fig2 fig3_4 fig3_physical table1 table1_pipeline
             table1_delay variation table2 wires phase wpla yield
             yield_columns waveform cascade factored mapping fsm exact_gap
             ablation_crossover ablation_shrink ablation_tracks
             ablation_sharing parallel espresso sweep serve_crossover micro

   The --quick flag shortens the espresso section's measurement windows
   (the CI smoke mode: dune exec bench/main.exe -- --quick espresso).
   --trace FILE records tracing spans across the selected sections and
   writes them as Chrome trace-event JSON (chrome://tracing, Perfetto).
   --run-out DIR makes the measured sections (parallel, espresso) emit
   Assess.Run artifacts for `cnfet_tool bench-ab`; --repeats N samples
   each of those sections N times into the run's metric series. *)

let section name description =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" name description;
  Printf.printf "================================================================\n%!"

(* --- Fig. 1: ambipolar device — polarity vs PG voltage ------------------------- *)

let run_fig1 () =
  section "fig1" "Ambipolar CNFET: the three states and the V-shaped transfer curve";
  let p = Device.Ambipolar.default in
  let t = Util.Tableau.create [ "V_PG (V)"; "state"; "|I_D| (A) @ CG=VDD" ] in
  List.iter
    (fun (vpg, i) ->
      Util.Tableau.add_row t
        [
          Printf.sprintf "%.2f" vpg;
          Device.Ambipolar.polarity_to_string (Device.Ambipolar.polarity_of_pg p vpg);
          Printf.sprintf "%.2e" i;
        ])
    (Device.Ambipolar.transfer_curve p ~cg:p.Device.Ambipolar.vdd ~vds:p.Device.Ambipolar.vdd
       ~n:13);
  Util.Tableau.print t;
  print_endline
    "Shape check: conduction at both PG extremes (p- and n-branch), an\n\
     always-off valley at V0 = VDD/2 - the reconfigurable-polarity mechanism\n\
     of the paper's Fig. 1."

(* --- Fig. 2: the configured GNOR gate ------------------------------------------ *)

let run_fig2 () =
  section "fig2" "GNOR gate configured as Y = NOR(A, B', D), input C dropped";
  let modes = [| Cnfet.Gnor.Pass; Cnfet.Gnor.Invert; Cnfet.Gnor.Drop; Cnfet.Gnor.Pass |] in
  let t = Util.Tableau.create [ "A"; "B"; "C"; "D"; "Y (switch-level)"; "Y (expected)" ] in
  let mismatches = ref 0 in
  for m = 0 to 15 do
    let inputs = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
    let y = Cnfet.Gnor.simulate modes inputs in
    let expect = not (inputs.(0) || not inputs.(1) || inputs.(3)) in
    if y <> expect then incr mismatches;
    Util.Tableau.add_row t
      (List.map string_of_int
         [
           Bool.to_int inputs.(0);
           Bool.to_int inputs.(1);
           Bool.to_int inputs.(2);
           Bool.to_int inputs.(3);
           Bool.to_int y;
           Bool.to_int expect;
         ])
  done;
  Util.Tableau.print t;
  Printf.printf
    "Pre-charge/evaluate switch-level simulation vs the caption's function: %s\n"
    (if !mismatches = 0 then "all 16 patterns match"
     else Printf.sprintf "%d MISMATCHES" !mismatches)

(* --- Fig. 3/4: PLA planes, programming protocol, crossbar ----------------------- *)

let run_fig3_4 () =
  section "fig3_4" "GNOR-plane PLA with per-crosspoint programming and crossbar interconnect";
  let f =
    Logic.Expr.to_cover_multi ~n_in:4
      [
        Logic.Expr.(v 0 && v 1 || (not_ (v 2) && v 3));
        Logic.Expr.(v 1 && not_ (v 3));
      ]
  in
  let pla = Cnfet.Pla.of_minimized f in
  Printf.printf "function mapped: 4 inputs -> %d product rows -> 2 outputs\n"
    (Cnfet.Pla.num_products pla);
  Printf.printf "AND plane: %d x %d (ONE column per input)\nOR plane: %d x %d\n"
    (Cnfet.Plane.rows (Cnfet.Pla.and_plane pla))
    (Cnfet.Plane.cols (Cnfet.Pla.and_plane pla))
    (Cnfet.Plane.rows (Cnfet.Pla.or_plane pla))
    (Cnfet.Plane.cols (Cnfet.Pla.or_plane pla));
  let plane = Cnfet.Pla.and_plane pla in
  let prog =
    Cnfet.Program.create ~rows:(Cnfet.Plane.rows plane) ~cols:(Cnfet.Plane.cols plane) ()
  in
  Cnfet.Program.program_plane prog plane;
  Printf.printf "programming: %d write steps (1 per crosspoint), readback verified: %b\n"
    (Cnfet.Program.steps prog)
    (Cnfet.Program.verify prog plane);
  let x = Cnfet.Crossbar.create ~rows:4 ~cols:4 in
  Cnfet.Crossbar.connect x ~row:0 ~col:2;
  Cnfet.Crossbar.connect x ~row:1 ~col:0;
  Cnfet.Crossbar.connect x ~row:3 ~col:1;
  Printf.printf "crossbar 4x4: %d of 16 crosspoints programmed (PG=V+), %d wire groups\n"
    (Cnfet.Crossbar.programmed_count x)
    (List.length (Cnfet.Crossbar.components x));
  let hw = Cnfet.Pla.build_hw pla in
  let ok = ref true in
  for m = 0 to 15 do
    let inputs = Array.init 4 (fun i -> m land (1 lsl i) <> 0) in
    if Cnfet.Pla.simulate_hw hw inputs <> Cnfet.Pla.eval pla inputs then ok := false
  done;
  Printf.printf "three-phase switch-level cascade == functional model on all 16 patterns: %b\n"
    !ok

(* --- Fig. 3 at device level: the programming select network --------------------------- *)

let run_fig3_physical () =
  section "fig3_physical"
    "Extension: the VSelR/VSelC/VPG select network simulated at device level";
  let hw = Cnfet.Program_hw.build ~rows:4 ~cols:4 () in
  Cnfet.Program_hw.write_mode hw ~row:1 ~col:2 Cnfet.Gnor.Pass;
  let t = Util.Tableau.create [ "cell"; "role"; "stored (V)"; "decodes as" ] in
  let p = Device.Ambipolar.default in
  List.iter
    (fun ((r, c), role) ->
      let v = Cnfet.Program_hw.stored_voltage hw ~row:r ~col:c in
      Util.Tableau.add_row t
        [
          Printf.sprintf "(%d,%d)" r c;
          role;
          Printf.sprintf "%.3f" v;
          Cnfet.Gnor.mode_to_string
            (Cnfet.Gnor.mode_of_polarity (Device.Ambipolar.polarity_of_pg p v));
        ])
    [
      ((1, 2), "selected (written n-type)");
      ((1, 0), "half-selected, same row");
      ((3, 2), "half-selected, same column");
      ((0, 0), "unselected");
    ];
  Util.Tableau.print t;
  let plane = Cnfet.Plane.create ~rows:4 ~cols:4 in
  let rng = Util.Rng.create 8 in
  Cnfet.Plane.iter
    (fun r c _ ->
      let m =
        match Util.Rng.int rng 3 with
        | 0 -> Cnfet.Gnor.Pass
        | 1 -> Cnfet.Gnor.Invert
        | _ -> Cnfet.Gnor.Drop
      in
      Cnfet.Plane.set_mode plane ~row:r ~col:c m)
    plane;
  let hw2 = Cnfet.Program_hw.build ~rows:4 ~cols:4 () in
  Cnfet.Program_hw.program_plane hw2 plane;
  Printf.printf
    "\nfull 4x4 plane programmed through the transient solver (%d access\n\
     devices, one equalize+write cycle per crosspoint): readback verified = %b\n"
    (Cnfet.Program_hw.device_count hw2)
    (Cnfet.Program_hw.verify hw2 plane);
  print_endline
    "Word-line boosting delivers full VDD through the n-pass chain; the\n\
     equalization phase bounds row-mate charge-sharing disturb."

(* --- Table 1 --------------------------------------------------------------------- *)

let paper_cnfet_areas = [ ("max46", 27600); ("apla", 33000); ("t2", 102960) ]

let table1_rows profiles =
  let t = Util.Tableau.create [ ""; "Flash"; "EEPROM"; "CNFET"; "paper (CNFET)" ] in
  Util.Tableau.add_row t [ "Basic cell (L^2)"; "40"; "100"; "60"; "60" ];
  Util.Tableau.add_rule t;
  List.iter
    (fun (name, p) ->
      let area tech = Cnfet.Area.pla_area tech p in
      let base_name =
        if String.length name > 0 && name.[String.length name - 1] = '*' then
          String.sub name 0 (String.length name - 1)
        else name
      in
      Util.Tableau.add_row t
        [
          name ^ " (L^2)";
          Util.Tableau.cell_int (area Device.Tech.flash);
          Util.Tableau.cell_int (area Device.Tech.eeprom);
          Util.Tableau.cell_int (area Device.Tech.cnfet);
          (match List.assoc_opt base_name paper_cnfet_areas with
          | Some a -> Util.Tableau.cell_int a
          | None -> "-");
        ])
    profiles;
  Util.Tableau.print t

let run_table1 () =
  section "table1" "Area of logic functions in 3 technologies (recorded MCNC profiles)";
  table1_rows
    (List.map
       (fun p ->
         ( p.Mcnc.Profiles.name,
           {
             Cnfet.Area.n_in = p.Mcnc.Profiles.n_in;
             n_out = p.Mcnc.Profiles.n_out;
             n_products = p.Mcnc.Profiles.n_products;
           } ))
       Mcnc.Profiles.table1);
  let max46 = { Cnfet.Area.n_in = 9; n_out = 1; n_products = 46 } in
  let apla = { Cnfet.Area.n_in = 10; n_out = 12; n_products = 25 } in
  Printf.printf
    "\nClaims: CNFET saves %.0f%% vs Flash on max46 (paper: ~21%%); overhead %.0f%%\n\
     on apla (paper: 3%%); CNFET always beats EEPROM (up to %.0f%% smaller).\n"
    (100.0 *. Cnfet.Area.cnfet_saving_vs Device.Tech.flash max46)
    (-100.0 *. Cnfet.Area.cnfet_saving_vs Device.Tech.flash apla)
    (100.0 *. Cnfet.Area.cnfet_saving_vs Device.Tech.eeprom max46)

let run_table1_pipeline () =
  section "table1_pipeline"
    "Table 1 through the full pipeline (synthetic twins: generate -> espresso -> map -> measure)";
  let rng = Util.Rng.create 2008 in
  (* The same staged vocabulary the population sweep drives
     (lib/sweep): each Table-1 twin runs generate -> profile as a
     [Sweep.Stage] pipeline, so its per-stage spans land in the bench
     trace alongside the sweep's. *)
  let pipeline =
    Sweep.Stage.(
      stage "bench.generate" (fun profile -> Mcnc.Synthetic.with_profile rng profile)
      >>> stage "bench.profile" (fun r ->
              (r, Cnfet.Area.profile_of_cover r.Mcnc.Synthetic.minimized)))
  in
  let results =
    List.map (fun p -> Sweep.Stage.exec_exn pipeline p) [ Mcnc.Profiles.max46; Mcnc.Profiles.apla; Mcnc.Profiles.t2 ]
  in
  table1_rows
    (List.map
       (fun (r, prof) -> (r.Mcnc.Synthetic.profile.Mcnc.Profiles.name ^ "*", prof))
       results);
  List.iter
    (fun (r, _) ->
      Printf.printf "%s*: target %d products, pipeline measured %d\n"
        r.Mcnc.Synthetic.profile.Mcnc.Profiles.name
        r.Mcnc.Synthetic.profile.Mcnc.Profiles.n_products r.Mcnc.Synthetic.achieved_products)
    results

let run_table1_delay () =
  section "table1_delay"
    "Extension: PLA evaluation delay and energy in the three technologies";
  let t =
    Util.Tableau.create
      [ "function"; "technology"; "delay (ps)"; "max freq (MHz)"; "energy/eval (fJ)" ]
  in
  List.iter
    (fun prof ->
      let p =
        {
          Cnfet.Area.n_in = prof.Mcnc.Profiles.n_in;
          n_out = prof.Mcnc.Profiles.n_out;
          n_products = prof.Mcnc.Profiles.n_products;
        }
      in
      List.iter
        (fun (fam, r) ->
          Util.Tableau.add_row t
            [
              prof.Mcnc.Profiles.name;
              Device.Tech.name fam;
              Printf.sprintf "%.0f" (r.Cnfet.Pla_timing.total_delay *. 1e12);
              Printf.sprintf "%.0f" (r.Cnfet.Pla_timing.max_frequency /. 1e6);
              Printf.sprintf "%.1f" (r.Cnfet.Pla_timing.energy_per_eval *. 1e15);
            ])
        (Cnfet.Pla_timing.compare_table1 p);
      Util.Tableau.add_rule t)
    Mcnc.Profiles.table1;
  Util.Tableau.print t;
  print_endline
    "Finding: intra-PLA delay is dominated by the product-line (bit-line)\n\
     length, where the CNFET's bigger basic cell partly offsets its halved\n\
     column count - CNFET sits between Flash and EEPROM on delay but wins\n\
     on energy (fewest, shortest switched lines). The system-level speedup\n\
     of Table 2 comes from routing, not from inside the PLA."

(* --- waveform: transient view of Fig. 2 --------------------------------------------- *)

let run_waveform () =
  section "waveform" "Transient (nodal) simulation of the GNOR pre-charge/evaluate cycle";
  let nl = Circuit.Netlist.create () in
  let clk = Circuit.Netlist.add_net nl "clk" in
  let a = Circuit.Netlist.add_net nl "a" in
  let b = Circuit.Netlist.add_net nl "b" in
  let g = Cnfet.Gnor.build nl ~name:"g" ~clock:clk ~inputs:[| a; b |] in
  Cnfet.Gnor.configure nl g [| Cnfet.Gnor.Pass; Cnfet.Gnor.Invert |];
  let tr = Circuit.Transient.create nl in
  let y = Cnfet.Gnor.output g in
  Circuit.Transient.record tr y;
  Circuit.Transient.drive tr a 1.2;
  Circuit.Transient.drive tr b 1.2;
  Circuit.Transient.drive tr clk 0.0;
  Circuit.Transient.run tr ~until:50e-12;
  Circuit.Transient.drive tr clk 1.2;
  Circuit.Transient.run tr ~until:150e-12;
  (* ASCII waveform, one sample every 5 ps. *)
  let samples = Circuit.Transient.waveform tr y in
  let vdd = 1.2 in
  print_endline "Y = NOR(A, B')  with A=1, B=1: pre-charge (clk=0) then discharge (clk=1)";
  print_endline "t(ps) |0V                    1.2V|";
  List.iter
    (fun (time, v) ->
      let ps = time *. 1e12 in
      if Float.rem ps 5.0 < 0.05 then begin
        let col = int_of_float (v /. vdd *. 28.0) in
        Printf.printf "%5.0f |%s*\n" ps (String.make (max 0 col) ' ')
      end)
    samples;
  (match Circuit.Transient.crossing_time tr y ~level:0.6 ~rising:false with
  | Some t -> Printf.printf "measured 50%%-discharge at t = %.1f ps after start\n" (t *. 1e12)
  | None -> print_endline "no discharge crossing (unexpected)");
  print_endline
    "The non-discharging input case (A=0) holds the pre-charged level - see\n\
     the switch-level truth table in section fig2."

(* --- cascade: multi-level NOR planes -------------------------------------------------- *)

let run_cascade () =
  section "cascade"
    "Cascaded NOR planes through crossbars realize any function (paper par.4)";
  let t =
    Util.Tableau.create
      [ "function"; "2-level devices"; "cascade devices"; "stages"; "ratio"; "verified" ]
  in
  List.iter
    (fun n ->
      let net = Cnfet.Cascade.xor_tree ~n in
      let c = Cnfet.Cascade.of_network net in
      let two_level =
        Cnfet.Pla.of_minimized
          (Logic.Expr.to_cover_multi ~n_in:n [ Logic.Expr.parity (List.init n Logic.Expr.v) ])
      in
      let d2 = Cnfet.Pla.crosspoint_count two_level in
      let dc = Cnfet.Cascade.device_count c in
      Util.Tableau.add_row t
        [
          Printf.sprintf "xor%d" n;
          string_of_int d2;
          string_of_int dc;
          string_of_int (Cnfet.Cascade.num_stages c);
          Printf.sprintf "%.1fx" (float_of_int d2 /. float_of_int dc);
          string_of_bool (Cnfet.Cascade.verify_against_network c net);
        ])
    [ 4; 6; 8; 10 ];
  Util.Tableau.print t;
  print_endline
    "Two GNOR planes need 2^(n-1) product rows for parity; the crossbar-\n\
     interleaved cascade grows linearly - the architectural point of Fig. 3."

(* --- ablation: channel width ----------------------------------------------------------- *)

let run_ablation_tracks () =
  section "ablation_tracks"
    "Minimum routable channel width: classical fabric vs GNOR fabric";
  let t =
    Util.Tableau.create [ "design"; "standard tracks"; "CNFET tracks"; "ratio" ]
  in
  List.iter
    (fun (name, seed, blocks, grid) ->
      let d =
        Fpga.Design.random (Util.Rng.create seed) ~n_pi:(2 * grid) ~n_blocks:blocks ~layers:8 ()
      in
      let p_std =
        Fpga.Place.place (Util.Rng.create seed) (Fpga.Arch.standard ~grid) d
      in
      let p_cn =
        Fpga.Place.place (Util.Rng.create seed) (Fpga.Arch.cnfet ~grid)
          (Fpga.Design.absorb_inverters d)
      in
      match (Fpga.Route.minimum_channel_width p_std, Fpga.Route.minimum_channel_width p_cn) with
      | Some w_std, Some w_cn ->
        Util.Tableau.add_row t
          [
            name;
            string_of_int w_std;
            string_of_int w_cn;
            Printf.sprintf "%.2fx" (float_of_int w_std /. float_of_int w_cn);
          ]
      | _ -> Util.Tableau.add_row t [ name; "unroutable"; "unroutable"; "-" ])
    [ ("60 blocks / 8x8", 21, 60, 8); ("100 blocks / 10x10", 22, 100, 10); ("140 blocks / 12x12", 23, 140, 12) ];
  Util.Tableau.print t;
  print_endline
    "Routing both signal polarities costs the classical fabric about twice\n\
     the channel width - the routability face of the paper's wire-count claim."

(* --- yield with column permutation ------------------------------------------------------ *)

let run_yield_columns () =
  section "yield_columns" "Extension: input-column permutation as an extra repair axis";
  let f = Mcnc.Generators.comparator ~bits:2 in
  let pla = Cnfet.Pla.of_minimized f in
  let n_products = Cnfet.Pla.num_products pla in
  let n_in = Cnfet.Plane.cols (Cnfet.Pla.and_plane pla) in
  let n_out = Cnfet.Plane.rows (Cnfet.Pla.or_plane pla) in
  let rng = Util.Rng.create 33 in
  let trials = 150 in
  let t = Util.Tableau.create [ "defect rate"; "rows only"; "rows + column perm" ] in
  List.iter
    (fun rate ->
      let rows_only = ref 0 and with_cols = ref 0 in
      for _ = 1 to trials do
        let and_d = Fault.Defect.random rng ~rows:n_products ~cols:n_in ~rate () in
        let or_d = Fault.Defect.random rng ~rows:n_out ~cols:n_products ~rate () in
        (match Fault.Repair.repair ~and_defects:and_d ~or_defects:or_d pla with
        | Fault.Repair.Repaired _ -> incr rows_only
        | Fault.Repair.Unrepairable -> ());
        match
          Fault.Repair.repair_permuting_inputs rng ~attempts:60 ~and_defects:and_d
            ~or_defects:or_d pla
        with
        | Some _ -> incr with_cols
        | None -> ()
      done;
      Util.Tableau.add_row t
        [
          Printf.sprintf "%.1f%%" (100.0 *. rate);
          Util.Tableau.cell_pct (float_of_int !rows_only /. float_of_int trials);
          Util.Tableau.cell_pct (float_of_int !with_cols /. float_of_int trials);
        ])
    [ 0.01; 0.03; 0.06 ];
  Util.Tableau.print t;
  Printf.printf "(cmp2: %d products x %d inputs; %d trials/point)\n" n_products n_in trials

let run_variation () =
  section "variation"
    "Extension: PLA timing under device variation (the 'unreliable devices' view)";
  let t =
    Util.Tableau.create
      [ "sigma"; "technology"; "mean delay (ps)"; "sd (ps)"; "worst (ps)"; "timing yield" ]
  in
  let p = { Cnfet.Area.n_in = 9; n_out = 1; n_products = 46 } in
  List.iter
    (fun sigma ->
      List.iter
        (fun fam ->
          let rng = Util.Rng.create 99 in
          let v =
            Cnfet.Pla_timing.monte_carlo rng ~trials:400 ~sigma (Device.Tech.get fam) p
          in
          Util.Tableau.add_row t
            [
              Printf.sprintf "%.0f%%" (100.0 *. sigma);
              Device.Tech.name fam;
              Printf.sprintf "%.0f" (v.Cnfet.Pla_timing.mean_delay *. 1e12);
              Printf.sprintf "%.0f" (v.Cnfet.Pla_timing.sigma_delay *. 1e12);
              Printf.sprintf "%.0f" (v.Cnfet.Pla_timing.worst_delay *. 1e12);
              Util.Tableau.cell_pct v.Cnfet.Pla_timing.yield_at_nominal;
            ])
        Device.Tech.all;
      Util.Tableau.add_rule t)
    [ 0.05; 0.15; 0.30 ];
  Util.Tableau.print t;
  print_endline
    "(max46 profile, 400 trials/point; yield = trials within 1.15x the\n\
     variation-free delay — wide nanotube process spreads eat the margin)"

(* --- Table 2 ----------------------------------------------------------------------- *)

let run_table2 () =
  section "table2" "Frequency of standard FPGA and CNFET FPGA (place, route, time)";
  Printf.printf "running paper-scale experiment (grid 17, ~286 CLBs)...\n%!";
  let t = Fpga.Flow.table2_experiment () in
  let s = t.Fpga.Flow.standard and c = t.Fpga.Flow.cnfet in
  let tab = Util.Tableau.create [ ""; "Standard FPGA"; "CNFET FPGA"; "paper" ] in
  Util.Tableau.add_row tab
    [
      "Occupied area";
      Util.Tableau.cell_pct s.Fpga.Flow.occupancy;
      Util.Tableau.cell_pct c.Fpga.Flow.occupancy;
      "99% / 44.9%";
    ];
  Util.Tableau.add_row tab
    [
      "Frequency";
      Printf.sprintf "%.0f MHz" (s.Fpga.Flow.timing.Fpga.Timing.frequency_hz /. 1e6);
      Printf.sprintf "%.0f MHz" (c.Fpga.Flow.timing.Fpga.Timing.frequency_hz /. 1e6);
      "154 / 349 MHz";
    ];
  Util.Tableau.print tab;
  Printf.printf
    "\nspeed-up %.2fx (paper: 2.27x); routed wire-segments %d (2 wires/conn) vs %d\n\
     (1 wire/conn); route overflow %d vs %d; logic levels %d vs %d\n"
    t.Fpga.Flow.speedup
    (2 * s.Fpga.Flow.routed_segments)
    c.Fpga.Flow.routed_segments s.Fpga.Flow.route_overflow c.Fpga.Flow.route_overflow
    s.Fpga.Flow.timing.Fpga.Timing.logic_levels c.Fpga.Flow.timing.Fpga.Timing.logic_levels

(* --- §5 wires: signal-count reduction ------------------------------------------------ *)

let run_wires () =
  section "wires" "Signals to route: classical needs both polarities, GNOR generates them";
  let t = Util.Tableau.create [ "function"; "classical wires"; "GNOR wires"; "reduction" ] in
  let cases =
    List.map
      (fun p ->
        ( p.Mcnc.Profiles.name,
          {
            Cnfet.Area.n_in = p.Mcnc.Profiles.n_in;
            n_out = p.Mcnc.Profiles.n_out;
            n_products = p.Mcnc.Profiles.n_products;
          } ))
      Mcnc.Profiles.table1
    @ List.map
        (fun (name, f) -> (name, Cnfet.Area.profile_of_cover (Espresso.Minimize.cover f)))
        Mcnc.Generators.all
  in
  List.iter
    (fun (name, p) ->
      Util.Tableau.add_row t
        [
          name;
          string_of_int (Cnfet.Area.total_wires Device.Tech.flash p);
          string_of_int (Cnfet.Area.total_wires Device.Tech.cnfet p);
          Printf.sprintf "%.2fx" (Cnfet.Area.wire_reduction_factor p);
        ])
    cases;
  Util.Tableau.print t;
  print_endline "Input-signal count is reduced by exactly the paper's 'almost factor 2'."

(* --- §5 phase optimization ------------------------------------------------------------ *)

let run_phase () =
  section "phase" "Output-phase optimization enabled by internal inversion (Sasao/MINI II)";
  let t = Util.Tableau.create [ "function"; "all-positive"; "phase-optimized"; "gain" ] in
  List.iter
    (fun (name, f) ->
      let r = Espresso.Phase.optimize f in
      Util.Tableau.add_row t
        [
          name;
          string_of_int r.Espresso.Phase.products_all_positive;
          string_of_int r.Espresso.Phase.products_optimized;
          Printf.sprintf "%.0f%%"
            (100.0
            *. (1.0
               -. float_of_int r.Espresso.Phase.products_optimized
                  /. float_of_int (max 1 r.Espresso.Phase.products_all_positive)));
        ])
    Mcnc.Generators.all;
  Util.Tableau.print t

(* --- §5 Whirlpool PLA ------------------------------------------------------------------- *)

let run_wpla () =
  section "wpla" "Whirlpool PLA (4 cascaded NOR planes) via Doppio-Espresso";
  let t =
    Util.Tableau.create
      [ "function"; "2-level products"; "WPLA products"; "pos pair"; "neg pair"; "correct" ]
  in
  let cases =
    [
      ("rd53", Mcnc.Generators.rd ~n:5);
      ("cmp3", Mcnc.Generators.comparator ~bits:3);
      ("add2", Mcnc.Generators.adder ~bits:2);
      ( "or6+and3",
        Logic.Expr.to_cover_multi ~n_in:6
          [
            Logic.Expr.(Or [ v 0; v 1; v 2; v 3; v 4; v 5 ]);
            Logic.Expr.(And [ v 0; v 1; v 2 ]);
          ] );
      ("mux2", Mcnc.Generators.mux ~select_bits:2);
    ]
  in
  List.iter
    (fun (name, f) ->
      let w = Cnfet.Wpla.of_function f in
      let pair = function
        | None -> "-"
        | Some pla -> string_of_int (Cnfet.Pla.num_products pla)
      in
      Util.Tableau.add_row t
        [
          name;
          string_of_int (Cnfet.Wpla.products_two_level w);
          string_of_int (Cnfet.Wpla.products w);
          pair (Cnfet.Wpla.positive_pla w);
          pair (Cnfet.Wpla.negative_pla w);
          string_of_bool (Cnfet.Wpla.verify_against w f);
        ])
    cases;
  Util.Tableau.print t

(* --- §5 fault tolerance -------------------------------------------------------------------- *)

let run_yield () =
  section "yield" "Fault tolerance on the regular array: remapping + spare rows";
  let f = Mcnc.Generators.comparator ~bits:3 in
  let pla = Cnfet.Pla.of_minimized f in
  let rng = Util.Rng.create 42 in
  let t = Util.Tableau.create [ "defect rate"; "fixed rows"; "remapped"; "+3 spare rows" ] in
  List.iter
    (fun p ->
      Util.Tableau.add_row t
        [
          Printf.sprintf "%.1f%%" (100.0 *. p.Fault.Yield.defect_rate);
          Util.Tableau.cell_pct p.Fault.Yield.yield_baseline;
          Util.Tableau.cell_pct p.Fault.Yield.yield_remap;
          Util.Tableau.cell_pct p.Fault.Yield.yield_spares;
        ])
    (Fault.Yield.sweep rng ~trials:400 ~spare_rows:3 pla
       ~rates:[ 0.002; 0.005; 0.01; 0.02; 0.05 ]);
  Util.Tableau.print t;
  Printf.printf "(cmp3 mapped to %d products x %d inputs x %d outputs; 400 trials/point)\n"
    (Cnfet.Pla.num_products pla) (Cnfet.Pla.num_inputs pla) (Cnfet.Pla.num_outputs pla)

let run_yield_xbar () =
  section "yield_xbar" "Extension: routing through defective interconnect crossbars";
  let rng = Util.Rng.create 55 in
  let t =
    Util.Tableau.create
      [ "defect rate"; "fixed columns"; "reassigned columns (4 spares)" ]
  in
  List.iter
    (fun p ->
      Util.Tableau.add_row t
        [
          Printf.sprintf "%.1f%%" (100.0 *. p.Fault.Xbar.defect_rate);
          Util.Tableau.cell_pct p.Fault.Xbar.yield_identity;
          Util.Tableau.cell_pct p.Fault.Xbar.yield_assigned;
        ])
    (Fault.Xbar.yield_sweep rng ~trials:400 ~rows:12 ~cols:16 ~demands:12
       [ 0.005; 0.01; 0.02; 0.05 ]);
  Util.Tableau.print t;
  print_endline
    "(12 signals through a 12x16 crossbar; stuck-closed crosspoints short\n\
     wires, stuck-open ones lose connections; column reassignment is the\n\
     interconnect analogue of PLA row remapping)"

let run_atpg () =
  section "atpg" "Extension: test-pattern generation for programmed PLAs";
  let t =
    Util.Tableau.create
      [ "function"; "crosspoints"; "faults"; "test vectors"; "input space"; "redundant faults" ]
  in
  List.iter
    (fun (name, f) ->
      let pla = Cnfet.Pla.of_minimized f in
      if Cnfet.Pla.num_inputs pla <= 7 then begin
        let tests, undetectable = Fault.Atpg.generate pla in
        Util.Tableau.add_row t
          [
            name;
            string_of_int (Cnfet.Pla.crosspoint_count pla);
            string_of_int (List.length (Fault.Atpg.all_faults pla));
            string_of_int (List.length tests);
            string_of_int (1 lsl Cnfet.Pla.num_inputs pla);
            string_of_int (List.length undetectable);
          ]
      end)
    Mcnc.Generators.all;
  Util.Tableau.print t;
  print_endline
    "A handful of vectors covers every detectable single crosspoint fault\n\
     (stuck-open and stuck-closed) - the testing payoff of the regular\n\
     array structure."

let run_folding () =
  section "folding" "Extension: simple column folding on top of the GNOR area win";
  let t =
    Util.Tableau.create
      [ "function"; "flat CNFET (L^2)"; "folded CNFET (L^2)"; "saving"; "Flash flat (L^2)" ]
  in
  List.iter
    (fun (name, f) ->
      let pla = Cnfet.Pla.of_minimized f in
      let profile = Cnfet.Area.profile_of_pla pla in
      let base = Cnfet.Area.pla_area Device.Tech.cnfet profile in
      let folded = Cnfet.Folding.folded_pla_area Device.Tech.cnfet pla in
      Util.Tableau.add_row t
        [
          name;
          Util.Tableau.cell_int base;
          Util.Tableau.cell_int folded;
          Printf.sprintf "%.0f%%" (100.0 *. (1.0 -. float_of_int folded /. float_of_int base));
          Util.Tableau.cell_int (Cnfet.Area.pla_area Device.Tech.flash profile);
        ])
    Mcnc.Generators.all;
  Util.Tableau.print t;
  print_endline
    "Folding shares physical columns between signals with disjoint,\n\
     separable users - strongest on one-hot-ish output planes (dec4) and\n\
     inert on dense parity planes; it compounds with the single-column\n\
     GNOR advantage."

(* --- ablation A: area crossover vs input count ----------------------------------------------- *)

let run_ablation_crossover () =
  section "ablation_crossover"
    "Where does the CNFET PLA start winning? Area vs input count (products=32)";
  let t =
    Util.Tableau.create [ "n_in"; "n_out"; "Flash (L^2)"; "CNFET (L^2)"; "CNFET saving" ]
  in
  List.iter
    (fun (n_in, n_out) ->
      let p = { Cnfet.Area.n_in; n_out; n_products = 32 } in
      Util.Tableau.add_row t
        [
          string_of_int n_in;
          string_of_int n_out;
          Util.Tableau.cell_int (Cnfet.Area.pla_area Device.Tech.flash p);
          Util.Tableau.cell_int (Cnfet.Area.pla_area Device.Tech.cnfet p);
          Printf.sprintf "%+.1f%%" (100.0 *. Cnfet.Area.cnfet_saving_vs Device.Tech.flash p);
        ])
    [ (2, 4); (4, 4); (6, 4); (8, 4); (12, 4); (16, 4); (24, 4); (32, 4) ];
  Util.Tableau.print t;
  (match Cnfet.Area.crossover_inputs Device.Tech.flash ~n_out:4 with
  | Some n ->
    Printf.printf "\ncrossover vs Flash at n_out=4: n_in >= %d (model: n_in > n_out)\n" n
  | None -> print_endline "no crossover");
  print_endline
    "The paper's observation: savings only for PLAs with many inputs (max46), a\n\
     small overhead otherwise (apla)."

(* --- ablation B: frequency vs CLB shrink factor ------------------------------------------------ *)

let run_ablation_shrink () =
  section "ablation_shrink" "Frequency vs CLB area shrink (grid 13, same design)";
  let grid = 13 in
  let rng = Util.Rng.create 7 in
  let sites = grid * grid in
  let design =
    Fpga.Design.random rng ~n_pi:(2 * grid)
      ~n_blocks:(int_of_float (0.99 *. float_of_int sites))
      ~fanin:4 ~inverter_fraction:0.095 ~layers:12 ()
  in
  let std = Fpga.Arch.standard ~grid in
  let t = Util.Tableau.create [ "CLB area"; "grid"; "occupancy"; "frequency"; "speed-up" ] in
  let base_freq = ref 0.0 in
  List.iter
    (fun area_factor ->
      (* CLB area scales the pitch by sqrt(area) and the site count
         inversely; 100% with 2 wires/connection is the standard fabric. *)
      let shrink = sqrt area_factor in
      let arch =
        if area_factor = 1.0 then std
        else
          {
            std with
            Fpga.Arch.flavour = Fpga.Arch.Cnfet;
            grid = int_of_float (floor (float_of_int grid /. shrink));
            wires_per_connection = 1;
            clb_pitch = std.Fpga.Arch.clb_pitch *. shrink;
            seg_resistance = std.Fpga.Arch.seg_resistance *. shrink;
            seg_capacitance = std.Fpga.Arch.seg_capacitance *. shrink;
            clb_delay = std.Fpga.Arch.clb_delay /. 1.75;
          }
      in
      let d = if area_factor = 1.0 then design else Fpga.Design.absorb_inverters design in
      let outcome = Fpga.Flow.run (Util.Rng.split rng) arch d in
      let freq = outcome.Fpga.Flow.timing.Fpga.Timing.frequency_hz in
      if area_factor = 1.0 then base_freq := freq;
      Util.Tableau.add_row t
        [
          Printf.sprintf "%.0f%%" (100.0 *. area_factor);
          Printf.sprintf "%dx%d" outcome.Fpga.Flow.grid outcome.Fpga.Flow.grid;
          Util.Tableau.cell_pct outcome.Fpga.Flow.occupancy;
          Printf.sprintf "%.0f MHz" (freq /. 1e6);
          Printf.sprintf "%.2fx" (freq /. !base_freq);
        ])
    [ 1.0; 0.7; 0.5; 0.35 ];
  Util.Tableau.print t;
  print_endline
    "(100% = classical CLB with both polarities routed; the paper's design\n\
     point is the 50% row)"

(* --- factored multi-level synthesis --------------------------------------------------------- *)

let run_factored () =
  section "factored"
    "Extension: algebraic factoring + NOR synthesis (the paper's 'high-performance design tools')";
  let t =
    Util.Tableau.create
      [ "function"; "SOP literals"; "factored literals"; "2-level devices"; "cascade devices"; "verified" ]
  in
  List.iter
    (fun (name, f) ->
      let m = Espresso.Minimize.cover f in
      let exprs = Espresso.Factor.factor_multi m in
      let verified = Espresso.Factor.verify m exprs in
      let net = Cnfet.Cascade.network_of_factored ~n_in:(Logic.Cover.num_inputs m) exprs in
      let c = Cnfet.Cascade.of_network net in
      let fact_lits =
        Array.fold_left (fun n e -> n + Espresso.Factor.literal_count e) 0 exprs
      in
      Util.Tableau.add_row t
        [
          name;
          string_of_int (Espresso.Factor.flat_literal_count m);
          string_of_int fact_lits;
          string_of_int (Cnfet.Pla.crosspoint_count (Cnfet.Pla.of_cover m));
          string_of_int (Cnfet.Cascade.device_count c);
          string_of_bool verified;
        ])
    Mcnc.Generators.all;
  Util.Tableau.print t;
  print_endline
    "Factoring cuts single-output literals by up to ~47% (rd73). The cascade\n\
     devices include per-stage crossbars; with cheap products (two-level\n\
     friendly functions) the flat PLA stays smaller - multi-level wins where\n\
     SOP explodes (see section cascade). SOP literals are shared across\n\
     outputs; factored counts are per-output."

(* --- technology mapping into CLBs --------------------------------------------------------------- *)

let run_mapping () =
  section "mapping"
    "Extension: splitting real functions into CLB-sized blocks (paper par.5)";
  let t =
    Util.Tableau.create
      [ "function"; "CLB inputs"; "blocks"; "levels"; "max fanin"; "equivalent" ]
  in
  List.iter
    (fun (name, f) ->
      List.iter
        (fun k ->
          let m = Fpga.Map.map_cover ~clb_inputs:k f in
          Util.Tableau.add_row t
            [
              name;
              string_of_int k;
              string_of_int (Fpga.Map.block_count m);
              string_of_int (Fpga.Map.levels m);
              string_of_int (Fpga.Map.max_block_inputs m);
              string_of_bool (Fpga.Map.verify_against m f);
            ])
        [ 4; 6 ];
      Util.Tableau.add_rule t)
    [
      ("rd73", Mcnc.Generators.rd ~n:7);
      ("cmp3", Mcnc.Generators.comparator ~bits:3);
      ("alu2", Mcnc.Generators.alu_slice ());
    ];
  Util.Tableau.print t;
  (* End to end: a real mapped function through place & route on both
     fabrics. *)
  let f = Mcnc.Generators.rd ~n:7 in
  let mapped = Fpga.Map.map_cover ~clb_inputs:4 f in
  let d = Fpga.Map.to_design mapped in
  let grid = 7 in
  let std = Fpga.Flow.run (Util.Rng.create 5) (Fpga.Arch.standard ~grid) d in
  let cn = Fpga.Flow.run (Util.Rng.create 5) (Fpga.Arch.cnfet ~grid) d in
  Printf.printf
    "\nrd73 mapped at k=4 (%d CLBs), placed and routed:\n\
    \  standard fabric: %.0f MHz   CNFET fabric: %.0f MHz   speed-up %.2fx\n"
    (Fpga.Design.block_count d)
    (std.Fpga.Flow.timing.Fpga.Timing.frequency_hz /. 1e6)
    (cn.Fpga.Flow.timing.Fpga.Timing.frequency_hz /. 1e6)
    (cn.Fpga.Flow.timing.Fpga.Timing.frequency_hz /. std.Fpga.Flow.timing.Fpga.Timing.frequency_hz)

(* --- ablation: net-tree routing ------------------------------------------------------------------ *)

let run_ablation_sharing () =
  section "ablation_sharing"
    "Extension: per-connection wires vs shared net trees (fanout Steiner sharing)";
  let t =
    Util.Tableau.create
      [ "fabric"; "routing"; "segments"; "peak usage"; "overflow" ]
  in
  let d = Fpga.Design.random (Util.Rng.create 31) ~n_pi:20 ~n_blocks:120 ~layers:10 () in
  List.iter
    (fun (fab, arch, design) ->
      let p = Fpga.Place.place (Util.Rng.create 31) arch design in
      List.iter
        (fun (mode, share) ->
          let r = Fpga.Route.route ~share_nets:share p in
          Util.Tableau.add_row t
            [
              fab;
              mode;
              string_of_int r.Fpga.Route.total_segments;
              string_of_int r.Fpga.Route.max_usage;
              string_of_int r.Fpga.Route.overflow;
            ])
        [ ("point-to-point", false); ("net trees", true) ];
      Util.Tableau.add_rule t)
    [
      ("standard", Fpga.Arch.standard ~grid:11, d);
      ("CNFET", Fpga.Arch.cnfet ~grid:11, Fpga.Design.absorb_inverters d);
    ];
  Util.Tableau.print t;
  print_endline
    "Net trees share fanout wiring and cut peak channel demand on both\n\
     fabrics; the polarity-duplication penalty of the classical fabric\n\
     persists either way."

(* --- FSMs on registered PLAs -------------------------------------------------------------------- *)

let run_fsm () =
  section "fsm"
    "Extension: finite-state machines on registered GNOR PLAs (binary vs one-hot)";
  let t =
    Util.Tableau.create
      [ "machine"; "encoding"; "state bits"; "PLA products"; "PLA area (CNFET, L^2)"; "verified" ]
  in
  let specs =
    [
      ("det(101)", Cnfet.Fsm.sequence_detector ~pattern:[ true; false; true ]);
      ("det(1101)", Cnfet.Fsm.sequence_detector ~pattern:[ true; true; false; true ]);
      ("counter mod 5", Cnfet.Fsm.counter ~modulo:5);
      ("counter mod 12", Cnfet.Fsm.counter ~modulo:12);
    ]
  in
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun enc ->
          let fsm = Cnfet.Fsm.synthesize ~encoding:enc spec in
          let pla = Cnfet.Fsm.pla fsm in
          let profile = Cnfet.Area.profile_of_pla pla in
          Util.Tableau.add_row t
            [
              name;
              (match enc with Cnfet.Fsm.Binary -> "binary" | Cnfet.Fsm.One_hot -> "one-hot");
              string_of_int (Cnfet.Fsm.state_bits fsm);
              string_of_int (Cnfet.Pla.num_products pla);
              Util.Tableau.cell_int (Cnfet.Area.pla_area Device.Tech.cnfet profile);
              string_of_bool (Cnfet.Fsm.verify_against_spec fsm spec);
            ])
        [ Cnfet.Fsm.Binary; Cnfet.Fsm.One_hot ];
      Util.Tableau.add_rule t)
    specs;
  Util.Tableau.print t;
  print_endline
    "Unused state codes become don't-cares for the minimizer; binary encoding\n\
     keeps the GNOR planes narrow, one-hot trades columns for simpler rows."

(* --- heuristic vs exact gap ----------------------------------------------------------------------- *)

let run_exact_gap () =
  section "exact_gap"
    "Extension: heuristic espresso vs exact multi-output minimum (small functions)";
  let t =
    Util.Tableau.create [ "instance"; "espresso cubes"; "exact minimum"; "gap" ]
  in
  let rng = Util.Rng.create 77 in
  let total_gap = ref 0 and n_cases = ref 0 in
  for k = 1 to 12 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let n_out = 1 + Util.Rng.int rng 3 in
    let f =
      Logic.Cover.random rng ~n_in ~n_out ~n_cubes:(3 + Util.Rng.int rng 7) ~dc_bias:0.4
    in
    if not (Logic.Cover.is_empty f) then begin
      incr n_cases;
      let heur = Logic.Cover.size (Espresso.Minimize.cover f) in
      let exact = Espresso.Exact.minimum_cubes f in
      total_gap := !total_gap + (heur - exact);
      Util.Tableau.add_row t
        [
          Printf.sprintf "random-%d (%d in, %d out)" k n_in n_out;
          string_of_int heur;
          string_of_int exact;
          string_of_int (heur - exact);
        ]
    end
  done;
  List.iter
    (fun (name, f) ->
      let heur = Logic.Cover.size (Espresso.Minimize.cover f) in
      let exact = Espresso.Exact.minimum_cubes f in
      incr n_cases;
      total_gap := !total_gap + (heur - exact);
      Util.Tableau.add_row t
        [ name; string_of_int heur; string_of_int exact; string_of_int (heur - exact) ])
    [
      ("rd53", Mcnc.Generators.rd ~n:5);
      ("cmp2", Mcnc.Generators.comparator ~bits:2);
      ("gray4", Mcnc.Generators.gray ~bits:4);
      ("mux2", Mcnc.Generators.mux ~select_bits:2);
    ];
  Util.Tableau.print t;
  Printf.printf "total gap over %d instances: %d cubes\n" !n_cases !total_gap

(* --- parallel: the lib/runtime batch-evaluation engine ------------------------------------------ *)

(* Measured sections double as Assess profiles: with --run-out DIR each
   emits its scalars as an Assess.Run artifact next to the BENCH_*.json
   derived view, so `cnfet_tool bench-ab` can compare any two harness
   invocations. *)
let run_out_dir = ref None
let assess_repeats = ref 1

let save_assess_run arun =
  match !run_out_dir with
  | None -> ()
  | Some dir -> (
    match Assess.Run.save ~dir arun with
    | Ok path -> Printf.printf "assess run: %s\n" path
    | Error e ->
      Printf.eprintf "cannot write assess run: %s\n" (Assess.Run.error_to_string e);
      exit 1)

let run_parallel () =
  section "parallel"
    "Sequential vs parallel batch evaluation (lib/runtime: pool + batch + cache + metrics)";
  let jobs =
    match Sys.getenv_opt "CNFET_BENCH_JOBS" with
    | Some s -> (try max 1 (int_of_string s) with _ -> Runtime.Pool.default_jobs ())
    | None -> Runtime.Pool.default_jobs ()
  in
  let metrics = Runtime.Metrics.create () in
  let cache = Runtime.Cache.create () in
  Printf.printf "worker domains: %d (recommended for this machine: %d)\n%!" jobs
    (Domain.recommended_domain_count ());
  let reports, arun =
    Runtime.Bench.run_assess ~metrics ~cache ~seed:2008 ~trials:1000
      ~repeats:!assess_repeats ~jobs ()
  in
  save_assess_run arun;
  let t =
    Util.Tableau.create [ "workload"; "items"; "sequential (s)"; "parallel (s)"; "speedup"; "identical" ]
  in
  List.iter
    (fun r ->
      Util.Tableau.add_row t
        [
          r.Runtime.Bench.name;
          string_of_int r.Runtime.Bench.items;
          Printf.sprintf "%.3f" r.Runtime.Bench.seq_s;
          Printf.sprintf "%.3f" r.Runtime.Bench.par_s;
          Printf.sprintf "%.2fx" r.Runtime.Bench.speedup;
          string_of_bool r.Runtime.Bench.identical;
        ])
    reports;
  Util.Tableau.print t;
  Printf.printf "cache: %d hits / %d misses (hit rate %.1f%%, %d entries)\n"
    (Runtime.Cache.hits cache) (Runtime.Cache.misses cache)
    (100.0 *. Runtime.Cache.hit_rate cache)
    (Runtime.Cache.size cache);
  let path = "BENCH_runtime.json" in
  Runtime.Bench.write_json ~cache ~metrics ~jobs ~path reports;
  Printf.printf "machine-readable results -> %s\n" path;
  print_endline
    "Fan-out is chunked and merged by submission index, so the parallel\n\
     column is bit-identical to the sequential one; speedup tracks the\n\
     worker-domain count on multicore hosts (a single-core container\n\
     reports ~1x). Set CNFET_BENCH_JOBS to override the domain count."

(* --- serve: inline vs pool evaluation ------------------------------------------------------------- *)

(* The daemon evaluates a request inline when its work (blocks × non-Drop
   crosspoints) is under Server.pool_crossover, else one pool item per
   block. This section times both routes on every generator program at
   a serve-hot (256) and a serve-bulk (16384) batch. The crossover is
   the work at which evaluating inline costs as much as the pool's
   hand-off: past it, even a pool of many domains could win back its
   overhead. The inline cost is a least-squares line over the 256-vector
   points, the range the decision is made in; at 16384 vectors gather
   and scatter, which the work estimate does not count, dominate. *)
let run_serve_crossover () =
  section "serve_crossover" "Inline vs pool evaluation of one serve request (Server.pool_crossover)";
  let module Server = Serve.Server in
  let server = Server.create { Server.default_config with jobs = Some 1 } in
  let cache = Runtime.Cache.create () in
  let rng = Util.Rng.create 2008 in
  (* median over 7 rounds of the mean per-call time, each round ~20 ms *)
  let time_us f =
    let clock () = Int64.to_float (Obs.Clock.monotonic ()) /. 1e3 in
    let t0 = clock () in
    ignore (f ());
    let calls = max 1 (truncate (20_000. /. Float.max 1. (clock () -. t0))) in
    let rounds =
      Array.init 7 (fun _ ->
          let t0 = clock () in
          for _ = 1 to calls do
            ignore (f ())
          done;
          (clock () -. t0) /. float calls)
    in
    Array.sort compare rounds;
    rounds.(3)
  in
  let t =
    Util.Tableau.create
      [ "program"; "crosspoints"; "vectors"; "work"; "inline (us)"; "pool (us)"; "route" ]
  in
  let small = ref [] in
  List.iter
    (fun (name, cover) ->
      let compiled = Runtime.Cache.compile cache cover in
      let engine = Runtime.Cache.Compiled compiled in
      let n_in = Logic.Cover.num_inputs cover in
      List.iter
        (fun rows ->
          let batch =
            Serve.Wire.matrix_of_vectors
              (Array.init rows (fun _ -> Array.init n_in (fun _ -> Util.Rng.bool rng)))
          in
          let inline = time_us (fun () -> Server.eval_engine server ~on_pool:false engine batch) in
          let pool = time_us (fun () -> Server.eval_engine server ~on_pool:true engine batch) in
          let work = Server.work engine ~rows in
          if rows = 256 then small := (float work, inline, pool) :: !small;
          Util.Tableau.add_row t
            [
              name;
              string_of_int (Runtime.Cache.crosspoints compiled);
              string_of_int rows;
              string_of_int work;
              Printf.sprintf "%.1f" inline;
              Printf.sprintf "%.1f" pool;
              (if Server.on_pool engine ~rows then "pool" else "inline");
            ])
        [ 256; 16384 ])
    Mcnc.Generators.all;
  Server.stop server;
  Util.Tableau.print t;
  let pts = Array.of_list !small in
  let n = float (Array.length pts) in
  let mean f = Array.fold_left (fun a p -> a +. f p) 0. pts /. n in
  let mw = mean (fun (w, _, _) -> w) and mi = mean (fun (_, i, _) -> i) in
  let slope =
    mean (fun (w, i, _) -> (w -. mw) *. (i -. mi)) /. mean (fun (w, _, _) -> (w -. mw) ** 2.)
  in
  let fixed = mi -. (slope *. mw) in
  let handoff = Util.Stats.percentile 50.0 (List.map (fun (_, i, p) -> p -. i) !small) in
  Printf.printf
    "inline cost at 256 vectors: %.2f us + %.2f ns per unit of work\n\
     pool hand-off per request (median at 256 vectors): %.1f us\n\
     break-even work (inline cost = hand-off): %.0f\n\
     Server.pool_crossover: %d\n"
    fixed (slope *. 1e3) handoff ((handoff -. fixed) /. slope) Server.pool_crossover

(* --- espresso: the word-parallel cover kernel --------------------------------------------------- *)

let quick_mode = ref false

let run_espresso () =
  section "espresso"
    "Word-parallel packed cover kernel vs naive reference (minimize, set ops, compiled eval)";
  let quick = !quick_mode in
  let metrics = Runtime.Metrics.create () in
  let reports, arun =
    Runtime.Bench_espresso.run_assess ~metrics ~quick ~seed:2008 ~repeats:!assess_repeats ()
  in
  save_assess_run arun;
  let t =
    Util.Tableau.create
      [ "function"; "in/out"; "cubes"; "minimize (s)"; "packed Mop/s"; "naive Mop/s"; "speedup"; "eval Meval/s"; "block Meval/s"; "block speedup"; "identical" ]
  in
  List.iter
    (fun r ->
      Util.Tableau.add_row t
        [
          r.Runtime.Bench_espresso.name;
          Printf.sprintf "%d/%d" r.Runtime.Bench_espresso.n_in r.Runtime.Bench_espresso.n_out;
          Printf.sprintf "%d->%d" r.Runtime.Bench_espresso.cubes_before
            r.Runtime.Bench_espresso.cubes_after;
          Printf.sprintf "%.4f" r.Runtime.Bench_espresso.minimize_s;
          Printf.sprintf "%.2f" r.Runtime.Bench_espresso.packed_mops;
          Printf.sprintf "%.2f" r.Runtime.Bench_espresso.naive_mops;
          Printf.sprintf "%.2fx" r.Runtime.Bench_espresso.op_speedup;
          Printf.sprintf "%.2f" r.Runtime.Bench_espresso.eval_mevals;
          Printf.sprintf "%.2f" r.Runtime.Bench_espresso.eval_block_mevals;
          Printf.sprintf "%.2fx" r.Runtime.Bench_espresso.block_speedup;
          string_of_bool
            (r.Runtime.Bench_espresso.identical
            && r.Runtime.Bench_espresso.block_identical);
        ])
    reports;
  Util.Tableau.print t;
  Printf.printf "packed-vs-naive op speedup (geomean): %.2fx\n"
    (Runtime.Bench_espresso.geomean_speedup reports);
  Printf.printf "blocked-vs-scalar eval speedup (geomean): %.2fx\n"
    (Runtime.Bench_espresso.geomean_block_speedup reports);
  let path = "BENCH_espresso.json" in
  Runtime.Bench_espresso.write_json ~quick ~seed:2008 ~path reports;
  Printf.printf "machine-readable results -> %s\n" path;
  print_endline
    "Both kernels run the same all-pairs contains/distance/intersect/\n\
     supercube workload and must produce identical checksums; the speedup\n\
     column is the bit-packing win. Pass --quick for the short CI windows."

(* --- Bechamel micro-benchmarks ------------------------------------------------------------------ *)

(* --- sweep: population-scale staged pipeline --------------------------------------------------- *)

let run_sweep () =
  section "sweep"
    "Population-scale silicon sweep (lib/sweep: staged pipeline sharded over the domain pool)";
  let config =
    if !quick_mode then Sweep.Drive.quick
    else { Sweep.Drive.default with profiles = 96; jobs = Runtime.Pool.default_jobs () }
  in
  let metrics = Runtime.Metrics.create () in
  let t0 = Unix.gettimeofday () in
  let last = ref None in
  let per_repeat =
    List.init !assess_repeats (fun _ ->
        let r = Sweep.Drive.run ~metrics config in
        last := Some r;
        Sweep.Report.to_metrics r)
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  let r = Option.get !last in
  print_string (Sweep.Report.summary r);
  let arun =
    Assess.Run.create ~profile:"sweep" ~seed:config.Sweep.Drive.seed ~wall_s
      ~meta:
        [
          ("jobs", string_of_int config.Sweep.Drive.jobs);
          ("profiles", string_of_int config.Sweep.Drive.profiles);
          ("quick", string_of_bool !quick_mode);
          ("repeats", string_of_int !assess_repeats);
        ]
      (Sweep.Report.merge_metrics per_repeat)
  in
  save_assess_run arun;
  let path = "BENCH_sweep.json" in
  Sweep.Report.write ~path (Sweep.Report.bench_json r);
  Printf.printf "machine-readable results -> %s\n" path;
  print_endline
    "Every item derives its random streams from (seed, salt, index), so the\n\
     population - and the area/frequency/yield Pareto fronts above - are\n\
     bit-identical at any worker-domain count; only the latency columns\n\
     move between machines."

let run_micro () =
  section "micro" "Bechamel micro-benchmarks of the core algorithms";
  let open Bechamel in
  let rd53 = Mcnc.Generators.rd ~n:5 in
  let cmp3 = Mcnc.Generators.comparator ~bits:3 in
  let random_cover =
    Logic.Cover.random (Util.Rng.create 1) ~n_in:8 ~n_out:2 ~n_cubes:24 ~dc_bias:0.4
  in
  let pla = Cnfet.Pla.of_minimized cmp3 in
  let hw = Cnfet.Pla.build_hw pla in
  let inputs6 = [| true; false; true; true; false; true |] in
  let small_design = Fpga.Design.random (Util.Rng.create 3) ~n_pi:8 ~n_blocks:40 ~layers:6 () in
  let placement =
    Fpga.Place.place (Util.Rng.create 3) (Fpga.Arch.standard ~grid:8) small_design
  in
  let tests =
    [
      Test.make ~name:"table1.espresso-rd53"
        (Staged.stage (fun () -> ignore (Espresso.Minimize.cover rd53)));
      Test.make ~name:"table1.espresso-random8x2"
        (Staged.stage (fun () -> ignore (Espresso.Minimize.cover random_cover)));
      Test.make ~name:"fig2.gnor-switch-level"
        (Staged.stage (fun () ->
             ignore
               (Cnfet.Gnor.simulate
                  [| Cnfet.Gnor.Pass; Cnfet.Gnor.Invert; Cnfet.Gnor.Drop; Cnfet.Gnor.Pass |]
                  [| true; false; true; false |])));
      Test.make ~name:"fig3_4.pla-switch-level"
        (Staged.stage (fun () -> ignore (Cnfet.Pla.simulate_hw hw inputs6)));
      Test.make ~name:"logic.complement-rd53"
        (Staged.stage (fun () -> ignore (Logic.Cover.complement rd53)));
      Test.make ~name:"logic.tautology-random"
        (Staged.stage (fun () -> ignore (Logic.Cover.tautology random_cover)));
      Test.make ~name:"table2.route-8x8"
        (Staged.stage (fun () -> ignore (Fpga.Route.route placement)));
      Test.make ~name:"wpla.doppio-cmp3"
        (Staged.stage (fun () -> ignore (Espresso.Doppio.minimize cmp3)));
      (let rng = Util.Rng.create 9 in
       Test.make ~name:"yield.repair-2pct"
         (Staged.stage (fun () ->
              ignore (Fault.Yield.functional_check rng pla cmp3 ~defect_rate:0.02 ~spare_rows:2))));
    ]
  in
  let grouped = Test.make_grouped ~name:"cnfet" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let t = Util.Tableau.create [ "benchmark"; "time/run"; "r^2" ] in
  let pp_time ns =
    if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, o) ->
      let est = match Analyze.OLS.estimates o with Some [ e ] -> pp_time e | _ -> "?" in
      let r2 =
        match Analyze.OLS.r_square o with Some r -> Printf.sprintf "%.3f" r | None -> "-"
      in
      Util.Tableau.add_row t [ name; est; r2 ])
    (List.sort compare rows);
  Util.Tableau.print t

(* --- driver ---------------------------------------------------------------------------------------- *)

let sections =
  [
    ("fig1", run_fig1);
    ("fig2", run_fig2);
    ("fig3_4", run_fig3_4);
    ("fig3_physical", run_fig3_physical);
    ("table1", run_table1);
    ("table1_pipeline", run_table1_pipeline);
    ("table1_delay", run_table1_delay);
    ("variation", run_variation);
    ("table2", run_table2);
    ("wires", run_wires);
    ("phase", run_phase);
    ("wpla", run_wpla);
    ("yield", run_yield);
    ("yield_columns", run_yield_columns);
    ("yield_xbar", run_yield_xbar);
    ("atpg", run_atpg);
    ("folding", run_folding);
    ("waveform", run_waveform);
    ("cascade", run_cascade);
    ("factored", run_factored);
    ("mapping", run_mapping);
    ("fsm", run_fsm);
    ("exact_gap", run_exact_gap);
    ("ablation_crossover", run_ablation_crossover);
    ("ablation_shrink", run_ablation_shrink);
    ("ablation_tracks", run_ablation_tracks);
    ("ablation_sharing", run_ablation_sharing);
    ("parallel", run_parallel);
    ("espresso", run_espresso);
    ("sweep", run_sweep);
    ("serve_crossover", run_serve_crossover);
    ("micro", run_micro);
  ]

(* Pull "--<flag> VALUE" out of the argument list, returning the value
   (if present) and the remaining arguments. *)
let rec extract_opt flag = function
  | [] -> (None, [])
  | a :: value :: rest when a = flag ->
    let _, others = extract_opt flag rest in
    (Some value, others)
  | [ a ] when a = flag ->
    Printf.eprintf "%s needs an argument\n" flag;
    exit 2
  | a :: rest ->
    let v, others = extract_opt flag rest in
    (v, a :: others)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let trace, args = extract_opt "--trace" args in
  let run_out, args = extract_opt "--run-out" args in
  let repeats, args = extract_opt "--repeats" args in
  run_out_dir := run_out;
  (match repeats with
  | None -> ()
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n >= 1 -> assess_repeats := n
    | _ ->
      Printf.eprintf "--repeats needs a positive integer, got %S\n" s;
      exit 2));
  let names = List.filter (fun a -> a <> "--quick") args in
  quick_mode := List.mem "--quick" args;
  let collector =
    match trace with
    | None -> None
    | Some path ->
      let t = Obs.Trace.create () in
      Obs.Trace.install t;
      Some (t, path)
  in
  let requested =
    match names with
    | _ :: _ -> names
    | [] -> List.map fst sections
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some run -> Obs.Span.with_ ~args:[ ("section", name) ] "bench.section" run
      | None ->
        Printf.eprintf "unknown section %S; available: %s\n" name
          (String.concat " " (List.map fst sections));
        exit 2)
    requested;
  (match collector with
  | None -> ()
  | Some (t, path) ->
    Obs.Trace.uninstall ();
    let events = Obs.Trace.events t in
    let oc = open_out path in
    output_string oc (Obs.Export.to_chrome_json events);
    close_out oc;
    Printf.printf "\ntrace: %d events (%d dropped); subsystems: %s -> %s\n"
      (List.length events) (Obs.Trace.dropped t)
      (String.concat ", " (Obs.Export.subsystems events))
      path;
    print_string (Obs.Export.text_profile events));
  print_newline ()
