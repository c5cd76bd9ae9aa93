(* The differential / invariant property battery.

   Each property pairs a generator from [Gens] with a law checked against
   an independent oracle: the byte-per-literal reference cube kernel, exact
   Quine–McCluskey minimization, exhaustive truth tables, or a second
   implementation of the same structure (functional vs switch-level).
   Everything runs from explicit seeds — no global state anywhere. *)

module Cube = Logic.Cube
module N = Logic.Cube_naive
module Cover = Logic.Cover

let opt_equal eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> eq x y
  | _ -> false

(* --- cubes ------------------------------------------------------------- *)

(* Every exported set operation of the packed kernel against the naive
   byte-per-literal reference, on cube pairs straddling the 31-field word
   boundary. *)
let cube_ops_vs_naive =
  Runner.make ~name:"cube/ops-vs-naive" ~count:250 (Gens.arb_cube_case ())
    (fun (c : Gens.cube_case) ->
      let a, b = Gens.cube_case_to_cubes c in
      let na = N.of_cube a and nb = N.of_cube b in
      let same_cube packed naive = N.equal (N.of_cube packed) naive in
      Cube.num_inputs a = N.num_inputs na
      && Cube.contains a b = N.contains na nb
      && Cube.contains b a = N.contains nb na
      && Cube.distance a b = N.distance na nb
      && Cube.intersects a b = (N.distance na nb = 0)
      && opt_equal same_cube (Cube.intersect a b) (N.intersect na nb)
      && same_cube (Cube.supercube2 a b) (N.supercube2 na nb)
      && opt_equal same_cube (Cube.cofactor a ~by:b) (N.cofactor na ~by:nb)
      && Cube.literal_count a = N.literal_count na
      && Cube.matches a c.cc_minterm = N.matches na c.cc_minterm
      && Cube.to_string a = N.to_string na
      && Cube.inputs_meet a b
         = List.for_all
             (fun i -> N.raw_get na i land N.raw_get nb i <> 0)
             (List.init c.cc_n_in Fun.id)
      && (let ok = ref true in
          for i = 0 to c.cc_n_in - 1 do
            if Cube.raw_get a i <> N.raw_get na i || Cube.get a i <> N.get na i then ok := false
          done;
          !ok)
      && (c.cc_n_in > Cube.max_mask_inputs
         ||
         let m = Cube.conflict_mask a b in
         m lsr c.cc_n_in = 0
         && List.for_all
              (fun i -> (m lsr i) land 1 = 1 = (N.raw_get na i land N.raw_get nb i = 0))
              (List.init c.cc_n_in Fun.id)))

(* Covers equal cube for cube, in order. *)
let same_cover a b =
  Cover.size a = Cover.size b && Array.for_all2 Cube.equal (Cover.to_array a) (Cover.to_array b)

(* The fast single-variable cofactor (checks field [i] and the output part,
   then sets field [i] to Dc) against the general cofactor by the universe
   cube with field [i] set, packed and naive, outputs included — and the
   cover-level [cofactor_var] against [cofactor_cube] cube for cube. Empty
   output parts are generated, so the "disjoint outputs" branch shows. *)
let cube_cofactor_var =
  Runner.make ~name:"logic/cofactor-var" ~count:150 (Gens.arb_cube_case ())
    (fun (c : Gens.cube_case) ->
      let a, b = Gens.cube_case_to_cubes c in
      let cover = Cover.make ~n_in:c.cc_n_in ~n_out:c.cc_n_out [ a; b ] in
      let univ = Cube.universe ~n_in:c.cc_n_in ~n_out:c.cc_n_out in
      List.for_all
        (fun i ->
          List.for_all
            (fun l ->
              let p = Cube.set univ i l in
              let fast = Cube.cofactor_var a i l in
              opt_equal Cube.equal fast (Cube.cofactor a ~by:p)
              && opt_equal (fun x y -> N.equal (N.of_cube x) y) fast
                   (N.cofactor (N.of_cube a) ~by:(N.of_cube p))
              && same_cover (Cover.cofactor_var cover i l) (Cover.cofactor_cube cover ~by:p))
            [ Cube.Zero; Cube.One ])
        (List.init c.cc_n_in Fun.id))

(* Algebraic laws of the packed kernel alone. *)
let cube_algebra =
  Runner.make ~name:"cube/algebra" ~count:250 (Gens.arb_cube_case ())
    (fun (c : Gens.cube_case) ->
      let a, b = Gens.cube_case_to_cubes c in
      let univ = Cube.universe ~n_in:c.cc_n_in ~n_out:c.cc_n_out in
      Cube.contains a a
      && Cube.contains univ a
      && Cube.intersects a b = (Cube.distance a b = 0)
      && (match Cube.intersect a b with
         | None -> not (Cube.intersects a b)
         | Some i -> Cube.contains a i && Cube.contains b i)
      && (let s = Cube.supercube2 a b in
          Cube.contains s a && Cube.contains s b)
      && (match Cube.cofactor a ~by:univ with
         | Some r -> Cube.equal r a
         | None ->
           (* cofactor is None exactly when the cubes are disjoint, which
              against the universe only happens for an empty output part *)
           not (Cube.intersects a univ))
      && Cube.matches_packed a (Cube.pack_minterm c.cc_minterm) = Cube.matches a c.cc_minterm)

(* --- covers ------------------------------------------------------------ *)

let scc_widths = Gens.small_widths @ [ 29; 31; 32; 33 ]

let cover_scc =
  Runner.make ~name:"cover/scc-preserves-function" ~count:120
    (Gens.arb_cover_spec ~widths:scc_widths ())
    (fun spec ->
      let f = Gens.cover_of_spec spec in
      let s = Cover.single_cube_containment f in
      Cover.size s <= Cover.size f && Cover.equivalent s f)

let cover_complement =
  Runner.make ~name:"cover/complement-partition" ~count:80
    (Gens.arb_cover_spec ~widths:Gens.small_widths ())
    (fun spec ->
      let f = Gens.cover_of_spec spec in
      let c = Cover.complement f in
      Cover.tautology (Cover.union f c)
      && List.for_all
           (fun m ->
             let on = Cover.eval f m and off = Cover.eval c m in
             let ok = ref true in
             for o = 0 to spec.Gens.cv_n_out - 1 do
               if Util.Bitvec.get on o = Util.Bitvec.get off o then ok := false
             done;
             !ok)
           (Gens.all_minterms spec.Gens.cv_n_in))

(* --- espresso ---------------------------------------------------------- *)

let minimize_verifies =
  Runner.make ~name:"espresso/minimize-verifies" ~count:60
    (Gens.arb_cover_dc_spec ~widths:Gens.small_widths ())
    (fun (s : Gens.cover_dc_spec) ->
      let f = Gens.cover_of_spec s.fd_f and dc = Gens.cover_of_spec s.fd_dc in
      let r = Espresso.Minimize.minimize ~dc f in
      Espresso.Minimize.verify ~dc ~original:f r.Espresso.Minimize.cover
      && r.Espresso.Minimize.final_cost <= r.Espresso.Minimize.initial_cost)

(* A caller-supplied off-set equal to [¬(f ∪ dc)] changes nothing. *)
let minimize_offset =
  Runner.make ~name:"espresso/minimize-offset" ~count:60
    (Gens.arb_cover_dc_spec ~widths:Gens.small_widths ())
    (fun (s : Gens.cover_dc_spec) ->
      let f = Gens.cover_of_spec s.fd_f and dc = Gens.cover_of_spec s.fd_dc in
      let plain = Espresso.Minimize.minimize ~dc f in
      let given =
        Espresso.Minimize.minimize ~dc ~offset:(Cover.complement (Cover.union f dc)) f
      in
      same_cover plain.Espresso.Minimize.cover given.Espresso.Minimize.cover
      && plain.Espresso.Minimize.initial_cost = given.Espresso.Minimize.initial_cost
      && plain.Espresso.Minimize.final_cost = given.Espresso.Minimize.final_cost
      && plain.Espresso.Minimize.iterations = given.Espresso.Minimize.iterations)

(* Phase assignment builds every candidate's on-set and off-set from
   per-output complements computed once. The reference runs the same
   greedy and exhaustive searches with a fresh [apply_phases] and a full
   [Minimize.cover] per candidate; phases, product counts and the cover,
   cube for cube, must agree. *)
let phase_reference_search ?dc ~exhaustive f =
  let module P = Espresso.Phase in
  let n_out = Cover.num_outputs f in
  let min_for phases = Espresso.Minimize.cover ?dc (P.apply_phases ?dc f phases) in
  let base = min_for (Array.make n_out true) in
  let best = ref (Array.make n_out true, base) in
  let try_ phases =
    let m = min_for phases in
    if Cover.size m < Cover.size (snd !best) then begin
      best := (phases, m);
      true
    end
    else false
  in
  if exhaustive then
    for mask = 1 to (1 lsl n_out) - 1 do
      ignore (try_ (Array.init n_out (fun o -> mask land (1 lsl o) = 0)))
    done
  else begin
    let improved = ref true and rounds = ref 0 in
    while !improved && !rounds < 3 do
      improved := false;
      incr rounds;
      for o = 0 to n_out - 1 do
        let cand = Array.copy (fst !best) in
        cand.(o) <- not cand.(o);
        if try_ cand then improved := true
      done
    done
  end;
  (fst !best, snd !best, Cover.size base)

let phase_offset_memo =
  Runner.make ~name:"espresso/phase-offset-memo" ~count:80
    (Gens.arb_cover_dc_spec ~widths:Gens.small_widths ~max_out:6 ())
    (fun (s : Gens.cover_dc_spec) ->
      let module P = Espresso.Phase in
      let f = Gens.cover_of_spec s.fd_f and dc = Gens.cover_of_spec s.fd_dc in
      let agrees ~exhaustive (r : P.result) =
        let phases, cover, all_pos = phase_reference_search ~dc ~exhaustive f in
        r.P.phases = phases && same_cover r.P.cover cover
        && r.P.products_all_positive = all_pos
        && r.P.products_optimized = Cover.size cover
      in
      agrees ~exhaustive:false (P.optimize ~dc f)
      && agrees ~exhaustive:true (P.optimize_exhaustive ~dc f))

let harder_never_worse =
  Runner.make ~name:"espresso/harder-never-worse" ~count:40
    (Gens.arb_cover_dc_spec ~widths:Gens.small_widths ())
    (fun (s : Gens.cover_dc_spec) ->
      let f = Gens.cover_of_spec s.fd_f and dc = Gens.cover_of_spec s.fd_dc in
      let base = Espresso.Minimize.minimize ~dc f in
      let harder = Espresso.Minimize.minimize_harder ~dc f in
      Espresso.Minimize.verify ~dc ~original:f harder.Espresso.Minimize.cover
      && harder.Espresso.Minimize.final_cost <= base.Espresso.Minimize.final_cost)

let qm_optimality =
  Runner.make ~name:"espresso/qm-optimality" ~count:50 ~max_size:20
    (Gens.arb_cover_spec ~widths:[ 2; 3; 4; 5 ] ~max_out:1 ())
    (fun spec ->
      let f = Gens.cover_of_spec spec in
      let exact = Espresso.Qm.minimize f in
      let optimum = Espresso.Qm.minimum_size f in
      let heuristic = (Espresso.Minimize.minimize f).Espresso.Minimize.cover in
      Cover.equivalent exact f
      && Cover.size exact = optimum
      && Cover.size heuristic >= optimum
      && Cover.equivalent heuristic f)

(* --- PLA and cascades --------------------------------------------------- *)

let pla_eval =
  Runner.make ~name:"pla/eval-matches-cover" ~count:80
    (Gens.arb_cover_spec ~widths:Gens.small_widths ())
    (fun spec ->
      let f = Gens.cover_of_spec spec in
      Cnfet.Pla.verify_against (Cnfet.Pla.of_cover f) f)

let cascade_network_eval =
  Runner.make ~name:"cascade/network-eval" ~count:60 (Gens.arb_network ())
    (fun net ->
      let c = Cnfet.Cascade.of_network net in
      Cnfet.Cascade.verify_against_network c net)

let cascade_cover_embedding =
  Runner.make ~name:"cascade/cover-embedding" ~count:60
    (Gens.arb_cover_spec ~widths:Gens.small_widths ())
    (fun spec ->
      let f = Gens.cover_of_spec spec in
      let net = Cnfet.Cascade.network_of_cover f in
      List.for_all
        (fun m ->
          let got = Cnfet.Cascade.eval_network net m in
          let want = Cover.eval f m in
          let ok = ref true in
          for o = 0 to spec.Gens.cv_n_out - 1 do
            if got.(o) <> Util.Bitvec.get want o then ok := false
          done;
          !ok)
        (Gens.all_minterms spec.Gens.cv_n_in))

(* --- programming protocol ----------------------------------------------- *)

let program_roundtrip =
  Runner.make ~name:"program/charge-roundtrip" ~count:60 (Gens.arb_plane_spec ())
    (fun spec ->
      let plane = Gens.plane_of_spec spec in
      let rows = Gens.plane_rows spec and cols = Gens.plane_cols spec in
      let p = Cnfet.Program.create ~rows ~cols () in
      Cnfet.Program.program_plane p plane;
      Cnfet.Program.verify p plane && Cnfet.Program.steps p = rows * cols)

(* Transient-solver writes: a handful of tiny arrays is all the runtime
   budget allows, and all the coverage the protocol needs on top of the
   charge-level property above. *)
let program_hw_roundtrip =
  Runner.make ~name:"program_hw/transistor-roundtrip" ~count:4 ~max_size:6
    (Gens.arb_plane_spec ~max_rows:2 ~max_cols:3 ())
    (fun spec ->
      let plane = Gens.plane_of_spec spec in
      let p = Cnfet.Program_hw.build ~rows:(Gens.plane_rows spec) ~cols:(Gens.plane_cols spec) () in
      Cnfet.Program_hw.program_plane p plane;
      Cnfet.Program_hw.verify p plane)

(* --- fault tolerance ----------------------------------------------------- *)

let atpg_widths = [ 2; 3; 4 ]

let atpg_full_coverage =
  Runner.make ~name:"atpg/full-coverage" ~count:40
    (Gens.arb_cover_spec ~widths:atpg_widths ~max_out:2 ~max_cubes:4 ())
    (fun spec ->
      let pla = Cnfet.Pla.of_cover (Gens.cover_of_spec spec) in
      let tests, _undetectable = Fault.Atpg.generate pla in
      Fault.Atpg.coverage pla tests = 1.0)

(* What the physically defective array computes once the repair assignment
   is programmed: push every minterm through [Defect.eval_with_defects] on
   both planes and demand the original function. *)
let defective_eval pla ~and_defects ~or_defects inputs =
  let products = Fault.Defect.eval_with_defects and_defects (Cnfet.Pla.and_plane pla) inputs in
  let rows = Fault.Defect.eval_with_defects or_defects (Cnfet.Pla.or_plane pla) products in
  Array.init (Cnfet.Pla.num_outputs pla) (fun o ->
      if Cnfet.Pla.output_inverted pla o then not rows.(o) else rows.(o))

let repair_revalidation =
  Runner.make ~name:"repair/defect-map-revalidation" ~count:60 (Gens.arb_repair_case ())
    (fun (rc : Gens.repair_case) ->
      let f = Gens.cover_of_spec rc.rp_cover in
      let pla = Cnfet.Pla.of_cover f in
      let and_defects = Gens.defect_map_of_spec rc.rp_and in
      let or_defects = Gens.defect_map_of_spec rc.rp_or in
      match Fault.Repair.repair ~spare_rows:rc.rp_spares ~and_defects ~or_defects pla with
      | Fault.Repair.Unrepairable ->
        (* Matching is complete, so "unrepairable" must mean the identity
           placement fails too. *)
        not (Fault.Repair.identity_works ~and_defects ~or_defects pla)
      | Fault.Repair.Repaired assignment ->
        let rows = Cnfet.Pla.num_products pla + rc.rp_spares in
        let repaired = Fault.Repair.apply pla assignment ~rows in
        List.for_all
          (fun m ->
            let got = defective_eval repaired ~and_defects ~or_defects m in
            let want = Cover.eval f m in
            let ok = ref true in
            for o = 0 to rc.rp_cover.Gens.cv_n_out - 1 do
              if got.(o) <> Util.Bitvec.get want o then ok := false
            done;
            !ok)
          (Gens.all_minterms rc.rp_cover.Gens.cv_n_in))

(* The chaos engine's healing contract, shrunk to a property: a defect
   map that ATPG vectors can see must, after repair within the spare
   budget and re-verification {e through the defects}, evaluate
   bit-identically to the fault-free reference on every minterm. A
   failing case shrinks to a minimal unhealable witness. *)
let chaos_heal_convergence =
  Runner.make ~name:"chaos/detect-repair-reverify" ~count:40 (Gens.arb_repair_case ())
    (fun (rc : Gens.repair_case) ->
      let f = Gens.cover_of_spec rc.rp_cover in
      let pla = Cnfet.Pla.of_cover f in
      let and_defects = Gens.defect_map_of_spec rc.rp_and in
      let or_defects = Gens.defect_map_of_spec rc.rp_or in
      let products = Cnfet.Pla.num_products pla in
      let truncate m ~rows ~cols =
        let t = Fault.Defect.perfect ~rows ~cols in
        for r = 0 to rows - 1 do
          for c = 0 to cols - 1 do
            Fault.Defect.set t ~row:r ~col:c (Fault.Defect.kind m ~row:r ~col:c)
          done
        done;
        t
      in
      let and_id = truncate and_defects ~rows:products ~cols:(Fault.Defect.cols and_defects) in
      let or_id = truncate or_defects ~rows:(Fault.Defect.rows or_defects) ~cols:products in
      let tests, _ = Fault.Atpg.generate pla in
      let detected =
        List.exists
          (fun v -> defective_eval pla ~and_defects:and_id ~or_defects:or_id v <> Cnfet.Pla.eval pla v)
          tests
      in
      if not detected then true (* masked on the array as programmed: nothing to heal *)
      else
        match Fault.Repair.repair ~spare_rows:rc.rp_spares ~and_defects ~or_defects pla with
        | Fault.Repair.Unrepairable ->
          (* The claim must be sound: not even the identity placement may
             survive when repair declares the spare budget insufficient. *)
          not (Fault.Repair.identity_works ~and_defects ~or_defects pla)
        | Fault.Repair.Repaired assignment ->
          let rows = products + rc.rp_spares in
          let repaired = Fault.Repair.apply pla assignment ~rows in
          List.for_all
            (fun m ->
              let got = defective_eval repaired ~and_defects ~or_defects m in
              let want = Cover.eval f m in
              let ok = ref true in
              for o = 0 to rc.rp_cover.Gens.cv_n_out - 1 do
                if got.(o) <> Util.Bitvec.get want o then ok := false
              done;
              !ok)
            (Gens.all_minterms rc.rp_cover.Gens.cv_n_in))

(* --- crossbar ----------------------------------------------------------- *)

let crossbar_resolve_vs_hw =
  Runner.make ~name:"crossbar/resolve-vs-hw" ~count:8 ~max_size:8
    (Gens.arb_crossbar_spec ~max_rows:3 ~max_cols:3 ())
    (fun (spec : Gens.crossbar_spec) ->
      let xb = Gens.crossbar_of_spec spec in
      let hw = Cnfet.Crossbar.build_hw xb in
      let row_vals, col_vals = Cnfet.Crossbar.simulate_hw hw ~driven:spec.xb_driven in
      let driven = List.map (fun (r, b) -> (Cnfet.Crossbar.Row r, b)) spec.xb_driven in
      let agrees wire observed =
        match Cnfet.Crossbar.resolve xb ~driven wire with
        | Cnfet.Crossbar.Driven b -> observed = Some b
        | Cnfet.Crossbar.Floating -> observed = None
        | Cnfet.Crossbar.Conflict ->
          (* The switch-level sim clamps driven nets as inputs and has no X
             state, so a conflicted component reads back whichever driver
             wins; only the functional model can name the conflict. *)
          true
      in
      let ok = ref true in
      for r = 0 to spec.xb_rows - 1 do
        if not (agrees (Cnfet.Crossbar.Row r) row_vals.(r)) then ok := false
      done;
      for c = 0 to spec.xb_cols - 1 do
        if not (agrees (Cnfet.Crossbar.Col c) col_vals.(c)) then ok := false
      done;
      !ok)

(* --- folding and FPGA --------------------------------------------------- *)

let folding_witness =
  Runner.make ~name:"folding/witness-valid" ~count:80 (Gens.arb_plane_spec ())
    (fun spec ->
      let plane = Gens.plane_of_spec spec in
      let r = Cnfet.Folding.fold_plane plane in
      Cnfet.Folding.validate plane r
      && r.Cnfet.Folding.physical_columns
         = Gens.plane_cols spec - List.length r.Cnfet.Folding.folds)

let fpga_inverter_absorption =
  Runner.make ~name:"fpga/inverter-absorption" ~count:50 (Gens.arb_design_case ())
    (fun case ->
      let d = Gens.design_of_case case in
      let d' = Fpga.Design.absorb_inverters d in
      Fpga.Design.validate d';
      Fpga.Design.inverter_count d' = 0
      && Fpga.Design.block_count d' = Fpga.Design.block_count d - Fpga.Design.inverter_count d)

(* The flat-array annealer against the tuple/Hashtbl placer it replaced:
   same seed, same sites for every block. Beyond the shapes the sweep
   generates, cases absorb inverters, leave slack in the grid, rewire
   the POs onto blocks of every rank and onto PIs, and pass non-integer
   weights, whose sums depend on the order each block's terms are added
   in. A design whose blocks were all absorbed only has to place. *)
type place_case = {
  pl_design : Gens.design_case;
  pl_absorb : bool;
  pl_slack : int;  (* grid sides beyond the smallest that fits *)
  pl_rewire_pos : bool;
  pl_weights : bool;
}

let gen_place_case =
  let open Gen in
  let* dg_seed = int_range 0 1_000_000 in
  let* dg_n_pi = int_range 1 8 in
  let* dg_n_blocks = int_range 1 30 in
  let* pl_absorb = bool in
  let* pl_slack = int_range 0 2 in
  let* pl_rewire_pos = bool in
  let* pl_weights = bool in
  return
    {
      pl_design = { Gens.dg_seed; dg_n_pi; dg_n_blocks };
      pl_absorb;
      pl_slack;
      pl_rewire_pos;
      pl_weights;
    }

let design_arb = Gens.arb_design_case ()

(* Decimals with no exact binary form: two sets of terms with equal real
   sums (0.1 + 0.2 against 0.3) round apart, so a move's delta can come
   out a few ulps off zero, and whether it does depends on the order the
   terms were added in. *)
let decimal_weights = [| 0.1; 0.2; 0.3; 0.6; 0.7; 1.3 |]

let shrink_place_case c =
  Seq.append
    (Seq.map (fun dg -> { c with pl_design = dg }) (Arb.shrink design_arb c.pl_design))
    (List.to_seq
       (List.filter_map Fun.id
          [
            (if c.pl_absorb then Some { c with pl_absorb = false } else None);
            (if c.pl_slack > 0 then Some { c with pl_slack = 0 } else None);
            (if c.pl_rewire_pos then Some { c with pl_rewire_pos = false } else None);
            (if c.pl_weights then Some { c with pl_weights = false } else None);
          ]))

let print_place_case c =
  Printf.sprintf "%s absorb=%b slack=%d rewire_pos=%b weights=%b"
    (Arb.print design_arb c.pl_design)
    c.pl_absorb c.pl_slack c.pl_rewire_pos c.pl_weights

let fpga_place_reference =
  Runner.make ~name:"fpga/place-reference" ~count:30
    (Arb.make ~shrink:shrink_place_case ~print:print_place_case gen_place_case)
    (fun c ->
      let rng = Util.Rng.create (c.pl_design.Gens.dg_seed lxor 0x91ace) in
      let d = Gens.design_of_case c.pl_design in
      let d = if c.pl_absorb then Fpga.Design.absorb_inverters d else d in
      let n_blocks = Fpga.Design.block_count d in
      let d =
        if not c.pl_rewire_pos then d
        else
          let source () =
            if n_blocks = 0 || Util.Rng.bool rng then
              Fpga.Design.Pi (Util.Rng.int rng d.Fpga.Design.n_pi)
            else Fpga.Design.Block (Util.Rng.int rng n_blocks)
          in
          { d with pos = Array.init (Array.length d.Fpga.Design.pos + 2) (fun _ -> source ()) }
      in
      let weights =
        if c.pl_weights then
          Some
            (Array.init (Fpga.Design.connection_count d) (fun _ ->
                 Util.Rng.pick rng decimal_weights))
        else None
      in
      let rec fit g = if g * g >= n_blocks then g else fit (g + 1) in
      let arch = Fpga.Arch.standard ~grid:(fit 2 + c.pl_slack) in
      let seed = Util.Rng.int rng 1_000_000 in
      let p = Fpga.Place.place ?weights (Util.Rng.create seed) arch d in
      n_blocks = 0
      ||
      let r = Place_reference.place ?weights (Util.Rng.create seed) arch d in
      Array.for_all Fun.id (Array.mapi (fun b xy -> Fpga.Place.block_loc p b = xy) r))

(* --- tracing ------------------------------------------------------------ *)

(* Random span programs — nested spans, instants, and spans whose body
   raises — executed against a private collector with a deterministic
   clock. Whatever the control flow, the recorded event list must pass
   [Event.check] and the Chrome-JSON export must re-validate with the
   same event count. Raising bodies exercise the [Fun.protect] end-event
   path; the name pool includes JSON-hostile characters to exercise
   escaping. *)
type span_op =
  | Mark of string
  | Span of { sp_name : string; sp_raises : bool; sp_body : span_op list }

let trace_names = [ "alpha"; "beta.gamma"; "qu\"ote"; "back\\slash"; "tab\there" ]

let gen_span_op =
  let open Gen in
  let name = oneofl trace_names in
  let rec op depth =
    if depth = 0 then map (fun n -> Mark n) name
    else
      frequency
        [
          (1, map (fun n -> Mark n) name);
          ( 2,
            let* sp_name = name in
            let* sp_raises = bool in
            let* sp_body = with_size 3 (list (op (depth - 1))) in
            return (Span { sp_name; sp_raises; sp_body }) );
        ]
  in
  list (op 3)

let rec shrink_span_op op =
  match op with
  | Mark _ -> Seq.empty
  | Span ({ sp_raises; sp_body; _ } as sp) ->
    List.to_seq sp_body
    |> Seq.append
         (if sp_raises then Seq.return (Span { sp with sp_raises = false })
          else Seq.empty)
    |> Seq.append
         (Seq.map
            (fun body -> Span { sp with sp_body = body })
            (Shrink.list ~elt:shrink_span_op sp_body))

let rec print_span_op op =
  match op with
  | Mark n -> Printf.sprintf "Mark %S" n
  | Span { sp_name; sp_raises; sp_body } ->
    Printf.sprintf "Span(%S,%b,[%s])" sp_name sp_raises
      (String.concat "; " (List.map print_span_op sp_body))

exception Trace_prop_abort

let rec exec_span_op t op =
  match op with
  | Mark n -> Obs.Trace.instant t ~args:[ ("k", "v") ] n
  | Span { sp_name; sp_raises; sp_body } -> (
    try
      Obs.Trace.span t sp_name (fun () ->
          List.iter (exec_span_op t) sp_body;
          if sp_raises then raise Trace_prop_abort)
    with Trace_prop_abort -> ())

let trace_wellformed =
  Runner.make ~name:"trace/wellformed" ~count:120
    (Arb.make
       ~shrink:(Shrink.list ~elt:shrink_span_op)
       ~print:(fun ops -> "[" ^ String.concat "; " (List.map print_span_op ops) ^ "]")
       gen_span_op)
    (fun ops ->
      let t = Obs.Trace.create ~clock:(Obs.Clock.fixed_step ()) () in
      List.iter (exec_span_op t) ops;
      let events = Obs.Trace.events t in
      (match Obs.Event.check events with Ok () -> true | Error _ -> false)
      &&
      match Obs.Export.validate_chrome_json (Obs.Export.to_chrome_json events) with
      | Ok n -> n = List.length events
      | Error _ -> false)

(* --- bit-sliced runtime eval -------------------------------------------- *)

(* Covers of 61 to 64 and 80 inputs, around the 63-lane word width, and
   batch sizes straddling the 63-lane block size: the blocked evaluator
   (full blocks and a partial last block through [eval_block], the split
   [Batch.eval_batch] uses) must be bit-identical to [Pla.eval], the
   independent oracle, on every vector, and so must every vector alone
   through [eval] (a one-lane block). *)
let bitslice_widths = [ 2; 5; 9; 30; 61; 62; 63; 64; 80 ]

let runtime_bitslice_vs_scalar =
  let gen =
    let open Gen in
    let* spec = Gens.cover_spec ~widths:bitslice_widths () in
    let* vecs = array_n 127 (array_n spec.Gens.cv_n_in bool) in
    return (spec, vecs)
  in
  Runner.make ~name:"runtime/bitslice-vs-scalar" ~count:60
    (Arb.make ~print:(fun (spec, _) -> Gens.print_cover_spec spec) gen)
    (fun (spec, vecs) ->
      let f = Gens.cover_of_spec spec in
      let pla = Cnfet.Pla.of_cover f in
      let compiled = Runtime.Cache.compile (Runtime.Cache.create ~capacity:2 ()) f in
      let scalar = Array.map (Cnfet.Pla.eval pla) vecs in
      let lanes_max = Runtime.Cache.lanes_per_word in
      let blocked_matches n =
        let ok = ref true in
        for b = 0 to ((n + lanes_max - 1) / lanes_max) - 1 do
          let first = b * lanes_max in
          let lanes = min lanes_max (n - first) in
          let block = Runtime.Cache.transpose vecs ~first ~lanes in
          let outs = Runtime.Cache.untranspose (Runtime.Cache.eval_block compiled block) ~lanes in
          for v = 0 to lanes - 1 do
            if outs.(v) <> scalar.(first + v) then ok := false
          done
        done;
        !ok
      in
      List.for_all blocked_matches [ 1; 17; 62; 63; 64; 126; 127 ]
      && Array.for_all2 (fun v want -> Runtime.Cache.eval compiled v = want) vecs scalar)

(* --- cache rot detection ------------------------------------------------- *)

(* Random covers, one in four with no cubes, so neither plane has a
   crosspoint and the rot hook flips a polarity instead of swapping a
   row's Pass and Invert lists. Rotting a cached entry in place must
   make the next lookup under its key (the cover key or the
   plane-content key) raise [Corrupt_entry], count exactly one
   corruption and evict it; the recompile then evaluates like
   [Pla.eval]. This pins the detection guarantee of the entry
   checksum. *)
let runtime_cache_rot =
  let gen =
    let open Gen in
    let* spec =
      frequency
        [
          (3, Gens.cover_spec ~widths:[ 1; 2; 3; 5; 9; 30; 63; 64; 80 ] ~max_out:4 ~max_cubes:12 ());
          (1, Gens.cover_spec ~widths:[ 1; 4; 63 ] ~max_out:4 ~max_cubes:0 ());
        ]
    in
    let* by_planes = bool in
    let* vecs = array_n 70 (array_n spec.Gens.cv_n_in bool) in
    return (spec, by_planes, vecs)
  in
  Runner.make ~name:"runtime/cache-rot-detected" ~count:80
    (Arb.make
       ~shrink:(fun (spec, by_planes, vecs) ->
         Seq.map (fun s -> (s, by_planes, vecs)) (Gens.shrink_cover_spec spec))
       ~print:(fun (spec, by_planes, _) ->
         Printf.sprintf "%s\nkey: %s" (Gens.print_cover_spec spec)
           (if by_planes then "planes" else "cover"))
       gen)
    (fun (spec, by_planes, vecs) ->
      let module C = Runtime.Cache in
      let f = Gens.cover_of_spec spec in
      let pla = Cnfet.Pla.of_cover f in
      let cache = C.create ~capacity:2 () in
      let lookup () = if by_planes then C.compile_of_pla_hit cache pla else C.compile_hit cache f in
      C.corrupt_for_test (fst (lookup ()));
      let caught = match lookup () with _ -> false | exception C.Corrupt_entry _ -> true in
      caught
      && C.corruptions cache = 1
      && C.size cache = 0
      &&
      let fresh, hit = lookup () in
      let lanes = min C.lanes_per_word (Array.length vecs) in
      let outs = C.untranspose (C.eval_block fresh (C.transpose vecs ~first:0 ~lanes)) ~lanes in
      (not hit)
      && C.corruptions cache = 1
      && Array.for_all2 (fun v want -> C.eval fresh v = want) vecs (Array.map (Cnfet.Pla.eval pla) vecs)
      && Array.for_all Fun.id (Array.init lanes (fun v -> outs.(v) = Cnfet.Pla.eval pla vecs.(v))))

(* --- fixed-memory histograms ------------------------------------------- *)

(* Positive samples, log-uniform over 10 ns .. 1000 s (inside the
   histogram's bucketed range), some of them repeated so that ranks
   straddle crowded buckets. Every percentile must lie within the
   relative error [Histogram] states of the exact nearest-rank value,
   p0/p100 must be exact, and merging two histograms must give what
   observing both sample sets into one gives. *)
let gen_latency =
  let open Gen in
  let* e = float_range (-8.0) 3.0 in
  let* copies = frequency [ (4, return 1); (1, int_range 2 8) ] in
  return (List.init copies (fun _ -> 10.0 ** e))

let gen_samples lo hi =
  let open Gen in
  let* n = int_range lo hi in
  map List.concat (list_n n gen_latency)

let histogram_ranks = 0.1 :: 99.9 :: List.init 101 float_of_int

let runtime_histogram_bound =
  let module H = Runtime.Histogram in
  let hist xs =
    let h = H.create () in
    List.iter (H.observe h) xs;
    h
  in
  let bounded xs h =
    List.for_all
      (fun p ->
        let exact = Util.Stats.percentile p xs in
        Float.abs (H.percentile h p -. exact) <= H.relative_error *. exact)
      histogram_ranks
  in
  let exact_ends xs h =
    H.percentile h 0.0 = Util.Stats.percentile 0.0 xs
    && H.percentile h 100.0 = Util.Stats.percentile 100.0 xs
  in
  let print_samples xs = String.concat ";" (List.map (Printf.sprintf "%.17g") xs) in
  Runner.make ~name:"runtime/histogram-bound" ~count:60
    (Arb.make
       ~shrink:(Shrink.pair (fun xs -> Shrink.list xs) (fun xs -> Shrink.list xs))
       ~print:(fun (a, b) -> Printf.sprintf "a=[%s] b=[%s]" (print_samples a) (print_samples b))
       (Gen.pair (gen_samples 1 150) (gen_samples 0 150)))
    (fun (a, b) ->
      let ha = hist a and hb = hist b and both = hist (a @ b) in
      let merged = H.merge ha hb in
      bounded a ha && bounded (a @ b) both && exact_ends a ha && exact_ends (a @ b) both
      && H.count merged = H.count both
      && H.percentiles merged histogram_ranks = H.percentiles both histogram_ranks
      && Float.abs (H.sum merged -. H.sum both) <= 1e-9 *. H.sum both)

(* --- serve wire codec --------------------------------------------------- *)

(* A frame case is either a well-formed message or a mangling of one:
   truncated at a byte boundary, one byte xor-flipped, decoded under a
   tiny limit, or outright garbage bytes. *)
type codec_case =
  | Cc_clean of Serve.Wire.message
  | Cc_truncate of Serve.Wire.message * int  (* keep this fraction seed *)
  | Cc_flip of Serve.Wire.message * int * int  (* position seed, xor byte *)
  | Cc_oversize of Serve.Wire.message
  | Cc_garbage of string

let gen_wire_message : Serve.Wire.message Gen.t =
  let open Gen in
  let short_string = let* n = int_range 0 12 in map (String.concat "") (list_n n (oneofl [ "a"; "B"; "~"; "\000"; "\xff"; "." ])) in
  let matrix =
    let* rows = int_range 0 5 in
    let* width = int_range 0 19 in
    map Serve.Wire.matrix_of_vectors (array_n rows (array_n width bool))
  in
  frequency
    [
      (4, let* tenant = short_string in
          let* program = short_string in
          let* batch = matrix in
          return (Serve.Wire.Eval_request { tenant; program; batch }));
      (1, return Serve.Wire.Ping);
      (2, let* tenant = short_string in
          let* model = short_string in
          let* batch = matrix in
          return (Serve.Wire.Classify_request { tenant; model; batch }));
      (3, let* first = int_range 0 100000 in
          let* outputs = matrix in
          return (Serve.Wire.Result_chunk { first; outputs }));
      (2, let* total = int_range 0 100000 in
          let* cache_hit = bool in
          let* ns = int_range 0 0x3FFF_FFFF_FFFF in
          return (Serve.Wire.Eval_done { total; cache_hit; eval_ns = Int64.of_int ns }));
      (1, let* queued = int_range 0 0xffff in
          let* inflight = int_range 0 0xffff in
          return (Serve.Wire.Overloaded { queued; inflight }));
      (2, let* code = oneofl Serve.Wire.[ Parse_failed; Arity_mismatch; Batch_too_large; Internal ] in
          let* message = short_string in
          return (Serve.Wire.Error_response { code; message }));
      (1, return Serve.Wire.Pong);
    ]

let gen_codec_case : codec_case Gen.t =
  let open Gen in
  frequency
    [
      (4, map (fun m -> Cc_clean m) gen_wire_message);
      (2, map2 (fun m k -> Cc_truncate (m, k)) gen_wire_message (int_range 0 1_000_000));
      (2, let* m = gen_wire_message in
          let* p = int_range 0 1_000_000 in
          let* x = int_range 1 255 in
          return (Cc_flip (m, p, x)));
      (1, map (fun m -> Cc_oversize m) gen_wire_message);
      (2, let* n = int_range 0 40 in
          map (fun l -> Cc_garbage (String.init (List.length l) (List.nth l))) (list_n n (map Char.chr (int_range 0 255))));
    ]

let print_codec_case = function
  | Cc_clean m -> "clean " ^ Serve.Wire.tag_name m
  | Cc_truncate (m, k) -> Printf.sprintf "truncate(%d) %s" k (Serve.Wire.tag_name m)
  | Cc_flip (m, p, x) -> Printf.sprintf "flip(%d^%02x) %s" p x (Serve.Wire.tag_name m)
  | Cc_oversize m -> "oversize " ^ Serve.Wire.tag_name m
  | Cc_garbage s -> Printf.sprintf "garbage(%d bytes)" (String.length s)

(* Decode is total: a frame either roundtrips exactly or fails with a
   typed [Wire.error] — no exception ever escapes, whatever the bytes. *)
let serve_codec_roundtrip =
  Runner.make ~name:"serve/codec-roundtrip" ~count:300
    (Arb.make ~print:print_codec_case gen_codec_case)
    (fun case ->
      let total_decode ?limit s =
        match Serve.Wire.decode ?limit s with
        | Ok _ | Error _ -> true
        | exception _ -> false
      in
      match case with
      | Cc_clean m -> (
        let bytes = Serve.Wire.encode m in
        match Serve.Wire.decode bytes with
        | Ok (m', consumed) -> m' = m && consumed = String.length bytes
        | Error _ -> false
        | exception _ -> false)
      | Cc_truncate (m, k) ->
        let bytes = Serve.Wire.encode m in
        let keep = if String.length bytes <= 1 then 0 else k mod String.length bytes in
        let cut = String.sub bytes 0 keep in
        (match Serve.Wire.decode cut with
        | Error (Serve.Wire.Truncated _) -> true
        | Ok _ | Error _ -> false
        | exception _ -> false)
      | Cc_flip (m, p, x) -> (
        let bytes = Bytes.of_string (Serve.Wire.encode m) in
        let p = p mod Bytes.length bytes in
        Bytes.set bytes p (Char.chr (Char.code (Bytes.get bytes p) lxor x));
        let s = Bytes.unsafe_to_string bytes in
        total_decode s
        &&
        (* whatever decodes must re-encode and decode to the same value *)
        match Serve.Wire.decode s with
        | Ok (m', _) -> (
          match Serve.Wire.decode (Serve.Wire.encode m') with
          | Ok (m'', _) -> m'' = m'
          | Error _ -> false
          | exception _ -> false)
        | Error _ -> true
        | exception _ -> false)
      | Cc_oversize m -> (
        let bytes = Serve.Wire.encode m in
        let payload = String.length bytes - Serve.Wire.header_bytes in
        let limit = max 0 (payload - 1) in
        match Serve.Wire.decode ~limit bytes with
        | Error (Serve.Wire.Oversized _) -> true
        | Ok (m', _) -> payload = 0 && m' = m
        | Error _ -> false
        | exception _ -> false)
      | Cc_garbage s -> total_decode s)

(* --- serve bit-matrix transposes ----------------------------------------- *)

(* A request matrix of random raw bytes (padding bits included, as a
   client may send them), a gather window, random output lane words for
   the scatter (garbage in the last block's unused lanes included), and
   a reply chunk size. *)
type transpose_case = {
  tc_rows : int;
  tc_width : int;
  tc_data : string;  (* rows * stride raw bytes *)
  tc_first : int;
  tc_lanes : int;
  tc_blocks : int array array;  (* ceil (rows/63) blocks of width words *)
  tc_chunk : int;
}

let gen_transpose_case =
  let open Gen in
  let lanes_max = Runtime.Cache.lanes_per_word in
  let* width = int_range 0 70 in
  let* rows = frequency [ (2, int_range 0 20); (3, int_range 50 140); (2, int_range 170 260) ] in
  let stride = Serve.Wire.matrix_stride width in
  let* bytes = list_n (rows * stride) (map Char.chr (int_range 0 255)) in
  let* lanes = int_range 1 (max 1 (min lanes_max rows)) in
  let* first = int_range 0 (max 0 (rows - lanes)) in
  let piece = int_range 0 ((1 lsl 21) - 1) in
  let word = map2 (fun (a, b) c -> (a lsl 42) lor (b lsl 21) lor c) (pair piece piece) piece in
  let* blocks = array_n ((rows + lanes_max - 1) / lanes_max) (array_n width word) in
  let* chunk = int_range 1 (rows + 2) in
  return
    {
      tc_rows = rows;
      tc_width = width;
      tc_data = String.of_seq (List.to_seq bytes);
      tc_first = first;
      tc_lanes = min lanes rows;
      tc_blocks = blocks;
      tc_chunk = chunk;
    }

let print_transpose_case c =
  Printf.sprintf "rows=%d width=%d first=%d lanes=%d chunk=%d" c.tc_rows c.tc_width c.tc_first
    c.tc_lanes c.tc_chunk

(* The matrix as the server would receive it: decoded from a frame, so
   padding bits above the width survive. *)
let decoded_matrix c =
  let b = Buffer.create (String.length c.tc_data + 17) in
  Buffer.add_int32_be b (Int32.of_int (13 + String.length c.tc_data));
  Buffer.add_uint8 b 0x43;
  Buffer.add_uint8 b Serve.Wire.version;
  Buffer.add_uint8 b 0x81;
  Buffer.add_int32_be b 0l;
  Buffer.add_int32_be b (Int32.of_int c.tc_rows);
  Buffer.add_uint16_be b c.tc_width;
  Buffer.add_string b c.tc_data;
  match Serve.Wire.decode (Buffer.contents b) with
  | Ok (Serve.Wire.Result_chunk { outputs; _ }, _) -> outputs
  | _ -> failwith "decoded_matrix: frame did not decode"

(* Bytes [Wire.write_result_chunks] puts on a real channel. *)
let written_chunks ~chunk m =
  let path = Filename.temp_file "wire-chunks" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Serve.Wire.write_result_chunks oc ~chunk m);
      In_channel.with_open_bin path In_channel.input_all)

(* [Wire.matrix_block] and [Wire.matrix_of_blocks] move bits eight rows
   by eight columns through an 8x8 transpose; both must agree with a
   per-bit reference at every width (0-70 straddles the byte
   boundaries), lane count (1-63) and row count, and gathering every
   block then scattering it back must give the matrix with its padding
   cleared. The reply chunk writer must put the same bytes on the
   channel as encoding each [Result_chunk] slice. *)
let serve_matrix_transpose =
  Runner.make ~name:"serve/matrix-transpose" ~count:150
    (Arb.make ~print:print_transpose_case gen_transpose_case)
    (fun c ->
      let module W = Serve.Wire in
      let lanes_max = Runtime.Cache.lanes_per_word in
      let rows = c.tc_rows and width = c.tc_width in
      let m = decoded_matrix c in
      let stride = W.matrix_stride width in
      let bit r i = Char.code c.tc_data.[(r * stride) + (i / 8)] land (1 lsl (i mod 8)) <> 0 in
      let block_ref ~first ~lanes =
        Array.init width (fun i ->
            let w = ref 0 in
            for v = 0 to lanes - 1 do
              if bit (first + v) i then w := !w lor (1 lsl v)
            done;
            !w)
      in
      let windows =
        Array.init ((rows + lanes_max - 1) / lanes_max) (fun b ->
            let first = b * lanes_max in
            (first, min lanes_max (rows - first)))
      in
      let gathered = Array.map (fun (first, lanes) -> W.matrix_block m ~first ~lanes) windows in
      let scatter_ref =
        W.matrix_init ~rows ~width (fun r i ->
            (c.tc_blocks.(r / lanes_max).(i) lsr (r mod lanes_max)) land 1 = 1)
      in
      let chunks_ref =
        let out = Buffer.create 256 in
        let first = ref 0 in
        while !first < rows do
          let len = min c.tc_chunk (rows - !first) in
          Buffer.add_string out
            (W.encode
               (W.Result_chunk { first = !first; outputs = W.matrix_sub m ~first:!first ~len }));
          first := !first + len
        done;
        Buffer.contents out
      in
      W.matrix_block m ~first:c.tc_first ~lanes:c.tc_lanes
      = block_ref ~first:c.tc_first ~lanes:c.tc_lanes
      && Array.for_all2 (fun (first, lanes) words -> words = block_ref ~first ~lanes) windows gathered
      && W.matrix_of_blocks ~rows ~width c.tc_blocks = scatter_ref
      && W.matrix_of_blocks ~rows ~width gathered = W.matrix_init ~rows ~width bit
      && String.equal (written_chunks ~chunk:c.tc_chunk m) chunks_ref)

(* --- serve request fast path ---------------------------------------------- *)

(* A few random covers, each sent as up to three texts (the rendering,
   plus comment-prefixed variants: distinct texts of one cover), by
   interleaved tenants with a random per-tenant quota. *)
type text_index_case = {
  ti_covers : Gens.cover_spec array;
  ti_quota : int;
  ti_ops : (int * int * int * bool array) list;  (* tenant, cover, variant, vector *)
}

let gen_text_index_case =
  let open Gen in
  let* n_covers = int_range 1 5 in
  let* covers =
    array_n n_covers (Gens.cover_spec ~widths:[ 1; 2; 3; 5; 8 ] ~max_out:3 ~max_cubes:6 ())
  in
  let* quota = int_range 1 4 in
  let* n_ops = int_range 1 40 in
  let op =
    let* tenant = int_range 0 2 in
    let* c = int_range 0 (n_covers - 1) in
    let* variant = int_range 0 2 in
    let* v = array_n covers.(c).Gens.cv_n_in bool in
    return (tenant, c, variant, v)
  in
  let* ops = list_n n_ops op in
  return { ti_covers = covers; ti_quota = quota; ti_ops = ops }

let print_text_index_case c =
  Printf.sprintf "quota=%d ops=%d covers=[%s]" c.ti_quota (List.length c.ti_ops)
    (String.concat "; " (Array.to_list (Array.map Gens.print_cover_spec c.ti_covers)))

let engine_eval engine v =
  match engine with
  | Runtime.Cache.Compiled c -> Runtime.Cache.eval c v
  | Runtime.Cache.Uncompiled pla -> Cnfet.Pla.eval pla v

(* Every reply through a tenant's text index equals the parse path (a
   fresh cache's [evaluator] on the parsed cover) and [Pla.eval] on the
   source cover; the second send of a text to a tenant whose cache still
   holds its entry is a hit; and after every step, whatever the quota
   evicted, each tenant's index holds at most [aliases_per_entry] texts
   per entry. *)
let serve_text_index =
  Runner.make ~name:"serve/text-index" ~count:80
    (Arb.make ~print:print_text_index_case gen_text_index_case)
    (fun c ->
      let module C = Runtime.Cache in
      let caches = Array.init 3 (fun _ -> C.create ~capacity:c.ti_quota ()) in
      let covers = Array.map Gens.cover_of_spec c.ti_covers in
      let text i variant =
        let f = covers.(i) in
        String.make variant '#' ^ (if variant > 0 then "\n" else "")
        ^ Logic.Pla_io.to_string ~on_set:f
            ~dc_set:(Logic.Cover.empty ~n_in:(Logic.Cover.num_inputs f) ~n_out:(Logic.Cover.num_outputs f))
            ()
      in
      List.for_all
        (fun (tenant, i, variant, v) ->
          let cache = caches.(tenant) and text = text i variant in
          let parsed () = (Logic.Pla_io.parse text).Logic.Pla_io.on_set in
          let indexed = C.text_cached cache text in
          let engine, hit =
            C.evaluator_of_text cache ~text ~check_arity:ignore ~parse:parsed
          in
          let reference, _ = C.evaluator (C.create ()) (parsed ()) in
          let out = engine_eval engine v in
          out = engine_eval reference v
          && out = Cnfet.Pla.eval (Cnfet.Pla.of_cover covers.(i)) v
          && ((not indexed) || hit)
          && C.text_cached cache text
          && Array.for_all
               (fun k -> C.text_index_size k <= C.aliases_per_entry * C.size k)
               caches)
        c.ti_ops)

(* The daemon's evaluation at batch sizes around the 63-lane block (0,
   1, 62, 63, 64 and a partial last block) on both sides of the
   inline/pool crossover, forced either way, for a compiled and an
   uncompiled engine: every row equals [Pla.eval], and the routing rule
   sends exactly the requests whose work reaches [pool_crossover] to the
   pool. *)
let serve_block_routes =
  let gen =
    let open Gen in
    let* spec = Gens.cover_spec ~widths:[ 1; 4; 9; 17 ] ~max_out:9 () in
    let* partial = int_range 65 200 in
    let* vecs = array_n partial (array_n spec.Gens.cv_n_in bool) in
    return (spec, vecs)
  in
  Runner.make ~name:"serve/block-routes" ~count:60
    (Arb.make ~print:(fun (spec, vecs) ->
         Printf.sprintf "%s, %d vectors" (Gens.print_cover_spec spec) (Array.length vecs)) gen)
    (fun (spec, vecs) ->
      let module S = Serve.Server in
      let f = Gens.cover_of_spec spec in
      let pla = Cnfet.Pla.of_cover f in
      let engines =
        [ Runtime.Cache.Compiled (Runtime.Cache.compile (Runtime.Cache.create ()) f); Runtime.Cache.Uncompiled pla ]
      in
      let server = S.create { S.default_config with jobs = Some 1 } in
      Fun.protect ~finally:(fun () -> S.stop server) (fun () ->
          List.for_all
            (fun n ->
              let rows = Array.sub vecs 0 n in
              let batch = Serve.Wire.matrix_of_vectors rows in
              let want = Array.map (Cnfet.Pla.eval pla) rows in
              List.for_all
                (fun engine ->
                  S.on_pool engine ~rows:n = (S.work engine ~rows:n >= S.pool_crossover)
                  && List.for_all
                       (fun on_pool ->
                         let got = S.eval_engine server ~on_pool engine batch in
                         Serve.Wire.matrix_rows got = n
                         && Array.for_all Fun.id
                              (Array.mapi (fun r w -> Serve.Wire.matrix_row got r = w) want))
                       [ false; true ])
                engines)
            [ 0; 1; 62; 63; 64; Array.length vecs ]))

(* --- assess run artifacts ---------------------------------------------- *)

type run_case =
  | Ra_clean of Assess.Run.t
  | Ra_truncate of Assess.Run.t * int
  | Ra_flip of Assess.Run.t * int * int

let gen_assess_run : Assess.Run.t Gen.t =
  let open Gen in
  let byte_string =
    let* n = int_range 0 10 in
    map (String.concat "")
      (list_n n
         (oneofl
            [ "a"; "Z"; "0"; "_"; "/"; " "; "\""; "\\"; "\n"; "\t"; "\000"; "\xff"; "\xc3\xa9" ]))
  in
  let finite_float =
    frequency
      [
        (3, float_range (-1000.0) 1000.0);
        (2, map float_of_int (int_range (-1_000_000) 1_000_000));
        (1,
          oneofl
            [ 0.0; -0.0; 1e-300; 5e-324; 1.0 /. 3.0; 1.7976931348623157e308; 123456789.125 ]);
      ]
  in
  let gen_metric =
    let* name = byte_string in
    let* units = oneofl [ ""; "s"; "Mop/s"; "x" ] in
    let* higher_is_better = bool in
    let* n = int_range 0 6 in
    let* samples = array_n n finite_float in
    return (Assess.Run.metric ~units ~higher_is_better name samples)
  in
  let* profile = oneofl [ "espresso-quick"; "parallel"; "serve-loadgen"; "p" ] in
  let* run_id = byte_string in
  let* seed = int_range 0 100_000 in
  let* git_rev = byte_string in
  let* host = byte_string in
  let* created_at = byte_string in
  let* wall_s = float_range 0.0 1e6 in
  let* n_meta = int_range 0 3 in
  let* meta = list_n n_meta (pair byte_string byte_string) in
  let* n_metrics = int_range 0 5 in
  let* metrics = list_n n_metrics gen_metric in
  return
    (Assess.Run.create ~run_id ~git_rev ~host ~created_at ~meta ~profile ~seed ~wall_s
       metrics)

let gen_run_case : run_case Gen.t =
  let open Gen in
  frequency
    [
      (4, map (fun r -> Ra_clean r) gen_assess_run);
      (3, map2 (fun r k -> Ra_truncate (r, k)) gen_assess_run (int_range 0 1_000_000));
      (3,
        let* r = gen_assess_run in
        let* p = int_range 0 1_000_000 in
        let* x = int_range 1 255 in
        return (Ra_flip (r, p, x)));
    ]

let print_run_case =
  let brief (r : Assess.Run.t) =
    Printf.sprintf "%s (%d metrics)" r.Assess.Run.profile (List.length r.Assess.Run.metrics)
  in
  function
  | Ra_clean r -> "clean " ^ brief r
  | Ra_truncate (r, k) -> Printf.sprintf "truncate(%d) %s" k (brief r)
  | Ra_flip (r, p, x) -> Printf.sprintf "flip(%d^%02x) %s" p x (brief r)

(* Run parsing is total and lossless: a serialized run parses back
   bit-identically (byte-identical re-encode), every strict prefix of the
   document is a typed error, and a corrupted byte either fails typed or
   parses to a value that itself roundtrips — never an exception. *)
let assess_run_roundtrip =
  let module R = Assess.Run in
  Runner.make ~name:"assess/run-roundtrip" ~count:200
    (Arb.make ~print:print_run_case gen_run_case)
    (fun case ->
      match case with
      | Ra_clean r -> (
        let doc = R.to_json r in
        match R.of_json doc with
        | Ok r' -> r' = r && R.to_json r' = doc
        | Error _ -> false
        | exception _ -> false)
      | Ra_truncate (r, k) -> (
        let doc = String.trim (R.to_json r) in
        let keep = k mod String.length doc in
        match R.of_json (String.sub doc 0 keep) with
        | Error (R.Parse _ | R.Schema _) -> true
        | Error (R.Io _) | Ok _ -> false
        | exception _ -> false)
      | Ra_flip (r, p, x) -> (
        let doc = Bytes.of_string (R.to_json r) in
        let p = p mod Bytes.length doc in
        Bytes.set doc p (Char.chr (Char.code (Bytes.get doc p) lxor x));
        match R.of_json (Bytes.unsafe_to_string doc) with
        | Error _ -> true
        | Ok r' -> (
          match R.of_json (R.to_json r') with
          | Ok r'' -> r'' = r'
          | Error _ -> false
          | exception _ -> false)
        | exception _ -> false))

(* --- sweep --------------------------------------------------------------- *)

(* The staged [Fpga.Flow] against the pre-refactor monolith kept verbatim
   in [Flow.Unstaged]: same seed, same rng consumption order, so every
   outcome field — floats included — must be structurally identical.
   This is the license for the population sweep to reuse [Flow.staged]
   in place of the code it replaced. *)
type flow_case = { fc_seed : int; fc_n_pi : int; fc_n_blocks : int }

let gen_flow_case =
  let open Gen in
  let* fc_seed = int_range 0 1_000_000 in
  let* fc_n_pi = int_range 2 5 in
  let* fc_n_blocks = int_range 1 12 in
  return { fc_seed; fc_n_pi; fc_n_blocks }

let print_flow_case c =
  Printf.sprintf "{seed=%d; n_pi=%d; n_blocks=%d}" c.fc_seed c.fc_n_pi c.fc_n_blocks

let sweep_pipeline_equivalence =
  Runner.make ~name:"sweep/pipeline-equivalence" ~count:24
    (Arb.make ~print:print_flow_case gen_flow_case)
    (fun c ->
      let design =
        Fpga.Design.random (Util.Rng.create c.fc_seed) ~n_pi:c.fc_n_pi ~n_blocks:c.fc_n_blocks ()
      in
      let grid =
        let rec fit g =
          if Fpga.Arch.sites (Fpga.Arch.cnfet ~grid:g) >= c.fc_n_blocks then g else fit (g + 1)
        in
        fit 3
      in
      let arch = Fpga.Arch.cnfet ~grid in
      let seed = c.fc_seed lxor 0x5157 in
      Fpga.Flow.run (Util.Rng.create seed) arch design
      = Fpga.Flow.Unstaged.run (Util.Rng.create seed) arch design
      && Fpga.Flow.run_timing_driven ~rounds:1 (Util.Rng.create (seed + 1)) arch design
         = Fpga.Flow.Unstaged.run_timing_driven ~rounds:1
             (Util.Rng.create (seed + 1))
             arch design)

(* A whole (tiny) population sweep per case, run twice at different job
   counts and window sizes: the deterministic report views must agree
   byte for byte, because nothing scheduling-dependent may reach an
   item's value. Kept very small — each case is two end-to-end sweeps. *)
let sweep_determinism =
  Runner.make ~name:"sweep/determinism" ~count:3
    (Arb.make ~print:string_of_int (Gen.int_range 0 10_000))
    (fun seed ->
      let config =
        {
          Sweep.Drive.default with
          profiles = 3;
          seed;
          jobs = 1;
          window = 2;
          space = Sweep.Drive.tiny_space;
          yield_trials = 4;
          checkpoint = None;
        }
      in
      let a = Sweep.Drive.run config in
      let b = Sweep.Drive.run { config with jobs = 2; window = 1 } in
      a.Sweep.Drive.r_failures = []
      && Assess.Json.to_string (Sweep.Report.deterministic_json a)
         = Assess.Json.to_string (Sweep.Report.deterministic_json b))

(* --- mcnc ---------------------------------------------------------------- *)

(* Manufactured covers survive the sweep's logical front end: the
   minimized cover is a correct minimization of the manufactured
   function, and phase optimization followed by a second application of
   the same assignment gives the original function back on every
   minterm. *)
type synth_case = { sy_seed : int; sy_n_in : int; sy_n_out : int; sy_products : int }

let gen_synth_case =
  let open Gen in
  let* sy_seed = int_range 0 1_000_000 in
  let* sy_n_in = int_range 4 6 in
  let* sy_n_out = int_range 1 3 in
  let* sy_products = int_range 3 8 in
  return { sy_seed; sy_n_in; sy_n_out; sy_products }

let print_synth_case c =
  Printf.sprintf "{seed=%d; %dx%dx%d}" c.sy_seed c.sy_n_in c.sy_n_out c.sy_products

let synthetic_phase_preserved =
  Runner.make ~name:"mcnc/synthetic-phase-preserved" ~count:10
    (Arb.make ~print:print_synth_case gen_synth_case)
    (fun c ->
      let profile =
        {
          Mcnc.Profiles.name = "prop";
          n_in = c.sy_n_in;
          n_out = c.sy_n_out;
          n_products = c.sy_products;
        }
      in
      let syn = Mcnc.Synthetic.with_profile (Util.Rng.create c.sy_seed) profile in
      let ph = Espresso.Phase.optimize ~max_rounds:1 syn.Mcnc.Synthetic.minimized in
      let unphased = Espresso.Phase.apply_phases ph.Espresso.Phase.cover ph.Espresso.Phase.phases in
      let same = ref true in
      for m = 0 to (1 lsl c.sy_n_in) - 1 do
        let inputs = Array.init c.sy_n_in (fun i -> m land (1 lsl i) <> 0) in
        let a = Cover.eval syn.Mcnc.Synthetic.on_set inputs in
        let b = Cover.eval unphased inputs in
        for o = 0 to c.sy_n_out - 1 do
          if Util.Bitvec.get a o <> Util.Bitvec.get b o then same := false
        done
      done;
      Espresso.Minimize.verify ~original:syn.Mcnc.Synthetic.on_set syn.Mcnc.Synthetic.minimized
      && !same)

(* --- classify ----------------------------------------------------------- *)

(* The bit-identity pin for the tentpole: on clean devices the lowered
   crossbar classifies every minterm exactly as the reference integer
   model; under drawn crosspoint faults it degrades to a typed label in
   the encoding range — data, never an exception. *)
let classify_mapped_vs_reference =
  Runner.make ~name:"classify/mapped-vs-reference" ~count:40
    (Gens.arb_classify_case ())
    (fun (c : Gens.classify_case) ->
      let m = Gens.model_of_case c in
      let mapped = Classify.Map.lower m in
      let minterms = Gens.all_minterms c.Gens.cl_n_features in
      let clean =
        List.for_all
          (fun x -> Classify.Map.classify mapped x = Classify.Model.predict m x)
          minterms
      in
      let spare_rows = 1 in
      let engine =
        Fault.Inject.make ~seed:c.Gens.cl_seed
          { Fault.Inject.nothing with crosspoint_flip = c.Gens.cl_rate }
      in
      let pla = mapped.Classify.Map.pla in
      let rows = Cnfet.Pla.num_products pla + spare_rows in
      let and_cols = Cnfet.Plane.cols (Cnfet.Pla.and_plane pla) in
      let n_out = Cnfet.Plane.rows (Cnfet.Pla.or_plane pla) in
      let ctr = ref 0 in
      let draw map ~row ~col =
        incr ctr;
        match Fault.Inject.crosspoint_fault_of engine ~index:!ctr with
        | Fault.Defect.Good -> ()
        | k -> Fault.Defect.set map ~row ~col k
      in
      let and_defects = Fault.Defect.perfect ~rows ~cols:and_cols in
      for r = 0 to rows - 1 do
        for cc = 0 to and_cols - 1 do
          draw and_defects ~row:r ~col:cc
        done
      done;
      let or_defects = Fault.Defect.perfect ~rows:n_out ~cols:rows in
      for r = 0 to n_out - 1 do
        for cc = 0 to rows - 1 do
          draw or_defects ~row:r ~col:cc
        done
      done;
      let phys = Classify.Map.identity_physical mapped ~spare_rows in
      let range = 1 lsl Classify.Model.label_bits m in
      let faulted =
        List.for_all
          (fun x ->
            match Classify.Map.classify_defective ~and_defects ~or_defects phys x with
            | label -> label >= 0 && label < range
            | exception _ -> false)
          minterms
      in
      clean && faulted)

let all =
  [
    cube_ops_vs_naive;
    cube_algebra;
    cube_cofactor_var;
    cover_scc;
    cover_complement;
    minimize_verifies;
    minimize_offset;
    phase_offset_memo;
    harder_never_worse;
    qm_optimality;
    pla_eval;
    cascade_network_eval;
    cascade_cover_embedding;
    program_roundtrip;
    program_hw_roundtrip;
    atpg_full_coverage;
    repair_revalidation;
    chaos_heal_convergence;
    crossbar_resolve_vs_hw;
    folding_witness;
    fpga_inverter_absorption;
    fpga_place_reference;
    trace_wellformed;
    runtime_bitslice_vs_scalar;
    runtime_cache_rot;
    runtime_histogram_bound;
    serve_codec_roundtrip;
    serve_matrix_transpose;
    serve_text_index;
    serve_block_routes;
    classify_mapped_vs_reference;
    assess_run_roundtrip;
    sweep_pipeline_equivalence;
    sweep_determinism;
    synthetic_phase_preserved;
  ]
