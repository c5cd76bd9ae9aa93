(* Tests for the espresso library: minimization correctness and quality,
   the exact QM oracle, output-phase optimization, Doppio-Espresso. *)

module Cover = Logic.Cover
module Cube = Logic.Cube
module Tt = Logic.Truth_table
module Expr = Logic.Expr
module Min = Espresso.Minimize

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let equiv a b = Tt.equal (Tt.of_cover a) (Tt.of_cover b)

let cover_of_exprs n_in exprs = Expr.to_cover_multi ~n_in exprs

(* --- minimize: correctness ------------------------------------------------ *)

let test_minimize_preserves_random () =
  let rng = Util.Rng.create 101 in
  for _ = 1 to 40 do
    let n_in = 2 + Util.Rng.int rng 6 in
    let n_out = 1 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(1 + Util.Rng.int rng 20) ~dc_bias:0.4 in
    let m = Min.cover f in
    checkb "equivalent" true (equiv f m);
    checkb "not larger" true (Cover.size m <= Cover.size f)
  done

let test_minimize_with_dc () =
  (* f = x0 x1 on-set, dc = x0 x1'; the minimizer may expand to x0. *)
  let n_in = 2 in
  let on = Expr.to_cover ~n_in Expr.(v 0 && v 1) in
  let dc = Expr.to_cover ~n_in Expr.(v 0 && not_ (v 1)) in
  let m = Min.cover ~dc on in
  checki "single product" 1 (Cover.size m);
  checki "single literal" 1 (Cover.literal_total m);
  (* Verify under dc semantics. *)
  checkb "verify" true (Min.verify ~dc ~original:on m)

let test_minimize_empty () =
  let f = Cover.empty ~n_in:3 ~n_out:2 in
  let m = Min.minimize f in
  checki "still empty" 0 (Cover.size m.Min.cover)

let test_minimize_constant_one () =
  let f = Expr.to_cover ~n_in:3 (Expr.Const true) in
  let m = Min.cover f in
  checki "one cube" 1 (Cover.size m);
  checki "no literals" 0 (Cover.literal_total m)

let test_minimize_redundant_input () =
  (* f = x0 x1 + x0 x1' = x0 *)
  let f = cover_of_exprs 2 [ Expr.(v 0 && v 1 || (v 0 && not_ (v 1))) ] in
  let m = Min.cover f in
  checki "merged to one cube" 1 (Cover.size m);
  checki "one literal" 1 (Cover.literal_total m)

let test_minimize_result_metadata () =
  let rng = Util.Rng.create 7 in
  let f = Cover.random rng ~n_in:5 ~n_out:2 ~n_cubes:15 ~dc_bias:0.4 in
  let r = Min.minimize f in
  let c0, l0 = r.Min.initial_cost and c1, l1 = r.Min.final_cost in
  checki "initial cubes" (Cover.size f) c0;
  checki "final cubes" (Cover.size r.Min.cover) c1;
  checkb "literals recorded" true (l0 >= 0 && l1 >= 0);
  checki "minimize runs no loop" 0 r.Min.iterations

(* --- minimize: quality (known optima) ------------------------------------- *)

let test_known_optima () =
  let cases =
    [
      ("maj3", cover_of_exprs 3 [ Expr.(majority3 (v 0) (v 1) (v 2)) ], 3);
      ("xor2", cover_of_exprs 2 [ Expr.(v 0 ^^ v 1) ], 2);
      ("xor3", cover_of_exprs 3 [ Expr.(parity [ v 0; v 1; v 2 ]) ], 4);
      ("xor4", cover_of_exprs 4 [ Expr.(parity [ v 0; v 1; v 2; v 3 ]) ], 8);
      ("and4", cover_of_exprs 4 [ Expr.(And [ v 0; v 1; v 2; v 3 ]) ], 1);
      ("or4", cover_of_exprs 4 [ Expr.(Or [ v 0; v 1; v 2; v 3 ]) ], 4);
      ("mux2", cover_of_exprs 3 [ Expr.(mux ~sel:(v 0) (v 1) (v 2)) ], 2);
    ]
  in
  List.iter
    (fun (name, f, optimum) ->
      let m = Min.cover f in
      Alcotest.check Alcotest.int (name ^ " product count") optimum (Cover.size m);
      checkb (name ^ " equivalent") true (equiv f m))
    cases

let test_primality () =
  (* Every cube of the result must be prime: raising any literal must leave
     the on-set. *)
  let rng = Util.Rng.create 55 in
  for _ = 1 to 15 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(3 + Util.Rng.int rng 10) ~dc_bias:0.35 in
    let m = Min.cover f in
    List.iter
      (fun c ->
        for i = 0 to n_in - 1 do
          if Cube.get c i <> Cube.Dc then begin
            let raised = Cube.set c i Cube.Dc in
            checkb "raised cube exceeds f" false (Cover.covers_cube f raised)
          end
        done)
      (Cover.cubes m)
  done

let test_irredundancy () =
  let rng = Util.Rng.create 77 in
  for _ = 1 to 15 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(3 + Util.Rng.int rng 10) ~dc_bias:0.35 in
    let m = Min.cover f in
    let cubes = Cover.cubes m in
    List.iteri
      (fun k c ->
        let others = List.filteri (fun j _ -> j <> k) cubes in
        let rest = Cover.make ~n_in ~n_out:1 others in
        checkb "cube is needed" false (Cover.covers_cube rest c))
      cubes
  done

let test_matches_qm_optimum_single_output () =
  (* On single-output functions espresso should stay close to the exact
     optimum; require it to match on these small random instances. *)
  let rng = Util.Rng.create 202 in
  let total_gap = ref 0 in
  for _ = 1 to 20 do
    let n_in = 3 + Util.Rng.int rng 2 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(2 + Util.Rng.int rng 6) ~dc_bias:0.4 in
    if not (Cover.is_empty f) then begin
      let exact = Espresso.Qm.minimum_size f in
      let heur = Cover.size (Min.cover f) in
      checkb "heuristic >= exact" true (heur >= exact);
      total_gap := !total_gap + (heur - exact)
    end
  done;
  checkb "average gap small (≤ 3 total over 20 runs)" true (!total_gap <= 3)

(* --- expand / irredundant / reduce as standalone passes -------------------- *)

let test_expand_against_offset () =
  let n_in = 2 in
  let f = Expr.to_cover ~n_in Expr.(v 0 && v 1) in
  let offset = Cover.complement f in
  let e = Min.expand f ~offset in
  checkb "expansion equivalent" true (equiv f e);
  (* x0 x1 is already prime against its own complement. *)
  checki "still one cube" 1 (Cover.size e)

let test_expand_grows_with_dc_offset () =
  let n_in = 2 in
  let on = Expr.to_cover ~n_in Expr.(v 0 && v 1) in
  let dc = Expr.to_cover ~n_in Expr.(v 0 && not_ (v 1)) in
  let offset = Cover.complement (Cover.union on dc) in
  let e = Min.expand on ~offset in
  checki "literal dropped" 1 (Cover.literal_total e)

(* Expand's result checked against the definition of a prime, on both
   sides of the 62-input limit of the conflict-mask raise test: every cube
   of [f] lies in an expanded cube, no expanded cube meets the off-set,
   and raising any literal or adding any output would. *)
let test_expand_primes_wide () =
  let rng = Util.Rng.create 6262 in
  List.iter
    (fun n_in ->
      for _ = 1 to 6 do
        let n_out = 1 + Util.Rng.int rng 3 in
        let f = Cover.random rng ~n_in ~n_out ~n_cubes:(2 + Util.Rng.int rng 4) ~dc_bias:0.93 in
        let offset = Cover.complement f in
        let e = Min.expand f ~offset in
        let off = Cover.to_array offset in
        let meets c = Array.exists (Cube.intersects c) off in
        List.iter
          (fun c ->
            checkb "f cube covered" true (List.exists (fun p -> Cube.contains p c) (Cover.cubes e)))
          (Cover.cubes f);
        List.iter
          (fun p ->
            checkb "disjoint from off-set" false (meets p);
            for i = 0 to n_in - 1 do
              if Cube.get p i <> Cube.Dc then
                checkb "input raise blocked" true (meets (Cube.set p i Cube.Dc))
            done;
            for o = 0 to n_out - 1 do
              if not (Util.Bitvec.get (Cube.outputs p) o) then begin
                let outs = Util.Bitvec.copy (Cube.outputs p) in
                Util.Bitvec.set outs o true;
                checkb "output raise blocked" true (meets (Cube.with_outputs p outs))
              end
            done)
          (Cover.cubes e)
      done)
    [ 5; 31; 32; 62; 63; 66 ]

let test_irredundant_removes () =
  let n_in = 2 in
  (* x0 + x1 + x0x1: the last cube is redundant. *)
  let f =
    Cover.make ~n_in ~n_out:1
      (Cover.cubes (Expr.to_cover ~n_in Expr.(v 0))
      @ Cover.cubes (Expr.to_cover ~n_in Expr.(v 1))
      @ Cover.cubes (Expr.to_cover ~n_in Expr.(v 0 && v 1)))
  in
  let r = Min.irredundant f in
  checki "redundant cube dropped" 2 (Cover.size r);
  checkb "equivalent" true (equiv f r)

let test_reduce_preserves () =
  let rng = Util.Rng.create 303 in
  for _ = 1 to 15 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out:2 ~n_cubes:(2 + Util.Rng.int rng 8) ~dc_bias:0.4 in
    let r = Min.reduce f in
    checkb "reduce preserves function" true (equiv f r)
  done

let test_irredundant_minimal () =
  let rng = Util.Rng.create 404 in
  for _ = 1 to 15 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out:2 ~n_cubes:(3 + Util.Rng.int rng 10) ~dc_bias:0.4 in
    let greedy = Min.irredundant f in
    let minimal = Min.irredundant_minimal f in
    checkb "minimal ≤ greedy" true (Cover.size minimal <= Cover.size greedy);
    checkb "minimal preserves function" true (equiv f minimal);
    (* result uses only cubes of f *)
    List.iter
      (fun c ->
        checkb "cube from original" true
          (List.exists (Cube.equal c) (Cover.cubes f)))
      (Cover.cubes minimal)
  done;
  checkb "rejects large inputs" true
    (try
       ignore
         (Min.irredundant_minimal
            (Cover.random rng ~n_in:13 ~n_out:1 ~n_cubes:2 ~dc_bias:0.5));
       false
     with Invalid_argument _ -> true)

(* qcheck: minimization preserves any random cover. *)
let prop_minimize_preserves =
  let gen =
    QCheck.Gen.(
      let* n_in = int_range 1 6 in
      let* n_out = int_range 1 3 in
      let* n_cubes = int_range 0 12 in
      let* seed = int_bound 1_000_000 in
      return (Cover.random (Util.Rng.create seed) ~n_in ~n_out ~n_cubes ~dc_bias:0.4))
  in
  QCheck.Test.make ~name:"espresso preserves any cover" ~count:100
    (QCheck.make ~print:Cover.to_string gen) (fun f ->
      equiv f (Min.cover f) && Cover.size (Min.cover f) <= Cover.size f)

let prop_factor_preserves =
  let gen =
    QCheck.Gen.(
      let* n_in = int_range 1 6 in
      let* n_cubes = int_range 0 10 in
      let* seed = int_bound 1_000_000 in
      return (Cover.random (Util.Rng.create seed) ~n_in ~n_out:1 ~n_cubes ~dc_bias:0.4))
  in
  QCheck.Test.make ~name:"factoring preserves any cover" ~count:100
    (QCheck.make ~print:Cover.to_string gen) (fun f ->
      Espresso.Factor.verify f [| Espresso.Factor.factor f |])

let test_essentials_split () =
  let n_in = 2 in
  (* x0 + x1: both cubes relatively essential. *)
  let f = cover_of_exprs n_in [ Expr.(v 0 || v 1) ] in
  let ess, rest = Min.essentials f in
  checki "both essential" 2 (Cover.size ess);
  checki "none left" 0 (Cover.size rest)

(* Why [minimize] has no essentials split and no REDUCE loop: after
   IRREDUNDANT no cube is covered by the others ∪ dc, which is exactly the
   relative-essential test, so every cube is essential and the rest the
   loop would work on is empty. *)
let test_irredundant_all_essential () =
  let rng = Util.Rng.create 2024 in
  for _ = 1 to 200 do
    let n_in = 3 + Util.Rng.int rng 8 in
    let n_out = 1 + Util.Rng.int rng 4 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(1 + Util.Rng.int rng 20) ~dc_bias:0.4 in
    let dc =
      if Util.Rng.bool rng then Cover.empty ~n_in ~n_out
      else Cover.random rng ~n_in ~n_out ~n_cubes:(1 + Util.Rng.int rng 3) ~dc_bias:0.3
    in
    let offset = Cover.complement (Cover.union f dc) in
    let irr = Min.irredundant ~dc (Min.expand f ~offset) in
    let ess, rest = Min.essentials ~dc irr in
    checki "every cube essential" (Cover.size irr) (Cover.size ess);
    checki "empty rest" 0 (Cover.size rest)
  done

(* --- verify ---------------------------------------------------------------- *)

let test_verify_detects_wrong () =
  let f = cover_of_exprs 2 [ Expr.(v 0 && v 1) ] in
  let wrong = cover_of_exprs 2 [ Expr.(v 0) ] in
  checkb "verify rejects over-approximation" false (Min.verify ~original:f wrong);
  checkb "verify accepts identity" true (Min.verify ~original:f f)

(* --- minimize_harder --------------------------------------------------------- *)

let test_harder_never_worse () =
  let rng = Util.Rng.create 909 in
  for _ = 1 to 15 do
    let n_in = 3 + Util.Rng.int rng 4 in
    let n_out = 1 + Util.Rng.int rng 2 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(3 + Util.Rng.int rng 15) ~dc_bias:0.4 in
    let base = Min.minimize f in
    let harder = Min.minimize_harder f in
    checkb "still equivalent" true (equiv f harder.Min.cover);
    checkb "not worse" true (harder.Min.final_cost <= base.Min.final_cost);
    checkb "rounds within budget" true (harder.Min.iterations >= 0 && harder.Min.iterations <= 4);
    checkb "an accepted round improves" true
      (harder.Min.iterations = 0 || harder.Min.final_cost < base.Min.final_cost)
  done

let test_harder_known_optima_stable () =
  (* On functions where plain espresso already hits the optimum, the gasp
     rounds must not change the product count. *)
  let maj = cover_of_exprs 3 [ Expr.(majority3 (v 0) (v 1) (v 2)) ] in
  checki "maj3 stays 3" 3 (Cover.size (Min.minimize_harder maj).Min.cover);
  let x5 = cover_of_exprs 5 [ Expr.(parity [ v 0; v 1; v 2; v 3; v 4 ]) ] in
  checki "xor5 stays 16" 16 (Cover.size (Min.minimize_harder x5).Min.cover)

let test_harder_empty () =
  let f = Cover.empty ~n_in:3 ~n_out:1 in
  checki "empty stays empty" 0 (Cover.size (Min.minimize_harder f).Min.cover)

(* --- Qm -------------------------------------------------------------------- *)

let test_qm_primes_xor () =
  let f = cover_of_exprs 3 [ Expr.(parity [ v 0; v 1; v 2 ]) ] in
  let primes = Espresso.Qm.prime_implicants f in
  (* Parity has no merging: the primes are the 4 on-minterms. *)
  checki "xor3 primes" 4 (Cover.size primes)

let test_qm_primes_and_or () =
  let f = cover_of_exprs 2 [ Expr.(v 0 || v 1) ] in
  let primes = Espresso.Qm.prime_implicants f in
  checki "x0+x1 has 2 primes" 2 (Cover.size primes)

let test_qm_minimize_equivalent () =
  let rng = Util.Rng.create 404 in
  for _ = 1 to 15 do
    let n_in = 2 + Util.Rng.int rng 4 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(1 + Util.Rng.int rng 6) ~dc_bias:0.4 in
    let m = Espresso.Qm.minimize f in
    checkb "qm result equivalent" true (equiv f m)
  done

let test_qm_with_dc () =
  let on = cover_of_exprs 2 [ Expr.(v 0 && v 1) ] in
  let dc = cover_of_exprs 2 [ Expr.(v 0 && not_ (v 1)) ] in
  let m = Espresso.Qm.minimize ~dc on in
  checki "dc enables single literal cover" 1 (Cover.size m);
  checki "one literal" 1 (Cover.literal_total m)

let test_qm_rejects_multi_output () =
  let f = cover_of_exprs 2 [ Expr.(v 0); Expr.(v 1) ] in
  Alcotest.check_raises "single output only" (Invalid_argument "Qm: single-output only")
    (fun () -> ignore (Espresso.Qm.minimize f))

(* --- Exact (multi-output) ------------------------------------------------------ *)

let test_exact_single_output_matches_qm () =
  let rng = Util.Rng.create 1101 in
  for _ = 1 to 10 do
    let n_in = 3 + Util.Rng.int rng 2 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(2 + Util.Rng.int rng 5) ~dc_bias:0.4 in
    if not (Cover.is_empty f) then
      checki "exact == qm on single output" (Espresso.Qm.minimum_size f)
        (Espresso.Exact.minimum_cubes f)
  done

let test_exact_correct_and_bounds_heuristic () =
  let rng = Util.Rng.create 1102 in
  for _ = 1 to 12 do
    let n_in = 3 + Util.Rng.int rng 2 in
    let n_out = 1 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(2 + Util.Rng.int rng 6) ~dc_bias:0.4 in
    if not (Cover.is_empty f) then begin
      let exact = Espresso.Exact.minimize f in
      checkb "exact equivalent" true (Logic.Bdd.equivalent_covers f exact);
      checkb "exact lower-bounds espresso" true
        (Cover.size exact <= Cover.size (Min.cover f))
    end
  done

let test_exact_output_sharing () =
  (* Identical outputs must share one cube. *)
  let f = cover_of_exprs 2 [ Expr.(v 0 && v 1); Expr.(v 0 && v 1) ] in
  checki "one shared cube" 1 (Espresso.Exact.minimum_cubes f)

let test_exact_with_dc () =
  let on = cover_of_exprs 2 [ Expr.(v 0 && v 1) ] in
  let dc = cover_of_exprs 2 [ Expr.(v 0 && not_ (v 1)) ] in
  let m = Espresso.Exact.minimize ~dc on in
  checki "dc exploited" 1 (Cover.size m);
  checki "one literal" 1 (Cover.literal_total m)

let test_exact_rejects_large () =
  let f = Cover.random (Util.Rng.create 1) ~n_in:11 ~n_out:1 ~n_cubes:3 ~dc_bias:0.5 in
  checkb "rejects 11 inputs" true
    (try
       ignore (Espresso.Exact.minimize f);
       false
     with Invalid_argument _ -> true)

(* --- Factor ------------------------------------------------------------------ *)

let test_factor_simple_shapes () =
  (* x0 x1 + x0 x2 factors as x0 (x1 + x2): 3 literals instead of 4. *)
  let f = cover_of_exprs 3 [ Expr.(v 0 && v 1 || (v 0 && v 2)) ] in
  let m = Min.cover f in
  let e = Espresso.Factor.factor m in
  checkb "verified" true (Espresso.Factor.verify m [| e |]);
  checki "3 literals" 3 (Espresso.Factor.literal_count e);
  checki "flat has 4" 4 (Espresso.Factor.flat_literal_count m)

let test_factor_constants () =
  let one = Expr.to_cover ~n_in:2 (Expr.Const true) in
  checkb "constant 1" true (Espresso.Factor.factor one = Espresso.Factor.And []);
  let zero = Logic.Cover.empty ~n_in:2 ~n_out:1 in
  checkb "constant 0" true (Espresso.Factor.factor zero = Espresso.Factor.Or [])

let test_factor_single_literal () =
  let f = Expr.to_cover ~n_in:3 (Expr.v 1) in
  checkb "bare literal" true (Espresso.Factor.factor f = Espresso.Factor.Lit (1, true))

let test_factor_verify_suite () =
  let rng = Util.Rng.create 1001 in
  for _ = 1 to 25 do
    let n_in = 3 + Util.Rng.int rng 4 in
    let n_out = 1 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(2 + Util.Rng.int rng 12) ~dc_bias:0.4 in
    let m = Min.cover f in
    let exprs = Espresso.Factor.factor_multi m in
    checkb "factored ≡ cover" true (Espresso.Factor.verify m exprs)
  done

let test_factor_never_inflates_much () =
  (* Single-output factoring never has more literals than the flat form. *)
  let rng = Util.Rng.create 1002 in
  for _ = 1 to 20 do
    let n_in = 3 + Util.Rng.int rng 4 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(2 + Util.Rng.int rng 12) ~dc_bias:0.4 in
    let m = Min.cover f in
    let e = Espresso.Factor.factor m in
    checkb "no literal inflation" true
      (Espresso.Factor.literal_count e <= Espresso.Factor.flat_literal_count m)
  done

let test_factor_no_complementary_pairs () =
  (* The simplifier must remove x + x' artifacts (they break plane
     mapping). *)
  let rec clean e =
    match e with
    | Espresso.Factor.Lit _ -> true
    | Espresso.Factor.And es | Espresso.Factor.Or es ->
      let lits =
        List.filter_map (function Espresso.Factor.Lit (i, p) -> Some (i, p) | _ -> None) es
      in
      List.for_all (fun (i, p) -> not (List.mem (i, not p) lits)) lits
      && List.for_all clean es
  in
  let rng = Util.Rng.create 1003 in
  for _ = 1 to 20 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out:1 ~n_cubes:(2 + Util.Rng.int rng 10) ~dc_bias:0.4 in
    checkb "no complementary literal pairs" true (clean (Espresso.Factor.factor (Min.cover f)))
  done

let test_factor_to_string () =
  let f = cover_of_exprs 2 [ Expr.(v 0 && not_ (v 1)) ] in
  Alcotest.check Alcotest.string "rendering" "x0x1'"
    (Espresso.Factor.to_string (Espresso.Factor.factor f))

(* --- Phase ------------------------------------------------------------------ *)

let test_phase_apply_identity () =
  let f = cover_of_exprs 3 [ Expr.(v 0 && v 1); Expr.(v 1 || v 2) ] in
  let same = Espresso.Phase.apply_phases f [| true; true |] in
  checkb "all-positive is identity" true (equiv f same)

let test_phase_apply_inverts () =
  let f = cover_of_exprs 2 [ Expr.(v 0 && v 1) ] in
  let neg = Espresso.Phase.apply_phases f [| false |] in
  let expect = cover_of_exprs 2 [ Expr.(not_ (v 0 && v 1)) ] in
  checkb "negative phase is complement" true (equiv neg expect)

let test_phase_optimize_finds_gain () =
  (* An OR of many literals is 1 product when inverted (NOR): the optimizer
     must choose the negative phase. *)
  let f = cover_of_exprs 4 [ Expr.(Or [ v 0; v 1; v 2; v 3 ]) ] in
  let r = Espresso.Phase.optimize f in
  checki "all-positive baseline" 4 r.Espresso.Phase.products_all_positive;
  checki "optimized" 1 r.Espresso.Phase.products_optimized;
  checkb "chose negative phase" false r.Espresso.Phase.phases.(0)

let test_phase_optimize_never_worse () =
  let rng = Util.Rng.create 505 in
  for _ = 1 to 10 do
    let n_in = 3 + Util.Rng.int rng 3 in
    let n_out = 1 + Util.Rng.int rng 2 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(2 + Util.Rng.int rng 8) ~dc_bias:0.4 in
    let r = Espresso.Phase.optimize f in
    checkb "no regression" true
      (r.Espresso.Phase.products_optimized <= r.Espresso.Phase.products_all_positive)
  done

let test_phase_exhaustive_bounds_greedy () =
  let rng = Util.Rng.create 606 in
  for _ = 1 to 8 do
    let n_in = 3 + Util.Rng.int rng 2 in
    let n_out = 1 + Util.Rng.int rng 3 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(2 + Util.Rng.int rng 8) ~dc_bias:0.4 in
    let greedy = Espresso.Phase.optimize f in
    let best = Espresso.Phase.optimize_exhaustive f in
    checkb "exhaustive ≤ greedy" true
      (best.Espresso.Phase.products_optimized <= greedy.Espresso.Phase.products_optimized)
  done

let test_phase_optimize_respects_function () =
  let f = cover_of_exprs 3 [ Expr.(Or [ v 0; v 1 ]); Expr.(v 1 && v 2) ] in
  let r = Espresso.Phase.optimize f in
  (* Rebuild each output from the phase-assigned cover and compare. *)
  let tt_f = Tt.of_cover f in
  let tt_c = Tt.of_cover r.Espresso.Phase.cover in
  let ok = ref true in
  for m = 0 to 7 do
    for o = 0 to 1 do
      let want = Tt.get tt_f ~minterm:m ~output:o in
      let got = Tt.get tt_c ~minterm:m ~output:o in
      let got = if r.Espresso.Phase.phases.(o) then got else not got in
      if want <> got then ok := false
    done
  done;
  checkb "phase-assigned cover encodes f" true !ok

(* --- Doppio ------------------------------------------------------------------ *)

let test_doppio_polarity_choice () =
  (* Output 0: OR of 4 (cheap inverted); output 1: AND (cheap positive). *)
  let f = cover_of_exprs 4 [ Expr.(Or [ v 0; v 1; v 2; v 3 ]); Expr.(v 0 && v 1) ] in
  let d = Espresso.Doppio.minimize f in
  checkb "output 0 negative" false d.Espresso.Doppio.choice.(0);
  checkb "output 1 positive" true d.Espresso.Doppio.choice.(1);
  checkb "whirlpool never worse" true
    (d.Espresso.Doppio.products_whirlpool <= d.Espresso.Doppio.products_two_level + 1)

let test_doppio_covers_correct () =
  let rng = Util.Rng.create 606 in
  for _ = 1 to 10 do
    let n_in = 3 + Util.Rng.int rng 2 in
    let n_out = 1 + Util.Rng.int rng 2 in
    let f = Cover.random rng ~n_in ~n_out ~n_cubes:(2 + Util.Rng.int rng 6) ~dc_bias:0.4 in
    let d = Espresso.Doppio.minimize f in
    checkb "positive cover ≡ f" true (equiv f d.Espresso.Doppio.positive);
    (* negative must be the complement per output *)
    let tt_f = Tt.of_cover f and tt_n = Tt.of_cover d.Espresso.Doppio.negative in
    let ok = ref true in
    for m = 0 to (1 lsl n_in) - 1 do
      for o = 0 to n_out - 1 do
        if Tt.get tt_f ~minterm:m ~output:o = Tt.get tt_n ~minterm:m ~output:o then ok := false
      done
    done;
    checkb "negative ≡ ¬f" true !ok
  done

let () =
  Alcotest.run "espresso"
    [
      ( "minimize-correctness",
        [
          Alcotest.test_case "random functions preserved" `Quick test_minimize_preserves_random;
          Alcotest.test_case "don't-cares exploited" `Quick test_minimize_with_dc;
          Alcotest.test_case "empty cover" `Quick test_minimize_empty;
          Alcotest.test_case "constant one" `Quick test_minimize_constant_one;
          Alcotest.test_case "redundant input merged" `Quick test_minimize_redundant_input;
          Alcotest.test_case "result metadata" `Quick test_minimize_result_metadata;
        ] );
      ( "minimize-quality",
        [
          Alcotest.test_case "known optima" `Quick test_known_optima;
          Alcotest.test_case "primality" `Quick test_primality;
          Alcotest.test_case "irredundancy" `Quick test_irredundancy;
          Alcotest.test_case "near QM optimum" `Quick test_matches_qm_optimum_single_output;
        ] );
      ( "passes",
        [
          Alcotest.test_case "expand vs offset" `Quick test_expand_against_offset;
          Alcotest.test_case "expand uses dc space" `Quick test_expand_grows_with_dc_offset;
          Alcotest.test_case "expand primes either side of 62 inputs" `Quick
            test_expand_primes_wide;
          Alcotest.test_case "irredundant removes" `Quick test_irredundant_removes;
          Alcotest.test_case "reduce preserves" `Quick test_reduce_preserves;
          Alcotest.test_case "essentials split" `Quick test_essentials_split;
          Alcotest.test_case "irredundant leaves no inessential cube" `Quick
            test_irredundant_all_essential;
          Alcotest.test_case "minimal irredundant" `Quick test_irredundant_minimal;
          Alcotest.test_case "verify detects wrong result" `Quick test_verify_detects_wrong;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_minimize_preserves;
          QCheck_alcotest.to_alcotest prop_factor_preserves;
        ] );
      ( "minimize-harder",
        [
          Alcotest.test_case "never worse" `Quick test_harder_never_worse;
          Alcotest.test_case "optima stable" `Quick test_harder_known_optima_stable;
          Alcotest.test_case "empty" `Quick test_harder_empty;
        ] );
      ( "qm",
        [
          Alcotest.test_case "xor primes" `Quick test_qm_primes_xor;
          Alcotest.test_case "or primes" `Quick test_qm_primes_and_or;
          Alcotest.test_case "minimize equivalent" `Quick test_qm_minimize_equivalent;
          Alcotest.test_case "with dc" `Quick test_qm_with_dc;
          Alcotest.test_case "rejects multi-output" `Quick test_qm_rejects_multi_output;
        ] );
      ( "exact",
        [
          Alcotest.test_case "matches QM single-output" `Quick
            test_exact_single_output_matches_qm;
          Alcotest.test_case "correct + bounds heuristic" `Quick
            test_exact_correct_and_bounds_heuristic;
          Alcotest.test_case "output sharing" `Quick test_exact_output_sharing;
          Alcotest.test_case "with dc" `Quick test_exact_with_dc;
          Alcotest.test_case "rejects large" `Quick test_exact_rejects_large;
        ] );
      ( "factor",
        [
          Alcotest.test_case "simple shapes" `Quick test_factor_simple_shapes;
          Alcotest.test_case "constants" `Quick test_factor_constants;
          Alcotest.test_case "single literal" `Quick test_factor_single_literal;
          Alcotest.test_case "verify (random)" `Quick test_factor_verify_suite;
          Alcotest.test_case "never inflates" `Quick test_factor_never_inflates_much;
          Alcotest.test_case "no complementary pairs" `Quick test_factor_no_complementary_pairs;
          Alcotest.test_case "rendering" `Quick test_factor_to_string;
        ] );
      ( "phase",
        [
          Alcotest.test_case "apply identity" `Quick test_phase_apply_identity;
          Alcotest.test_case "apply inverts" `Quick test_phase_apply_inverts;
          Alcotest.test_case "finds gain on NOR shape" `Quick test_phase_optimize_finds_gain;
          Alcotest.test_case "never worse" `Quick test_phase_optimize_never_worse;
          Alcotest.test_case "exhaustive bounds greedy" `Quick
            test_phase_exhaustive_bounds_greedy;
          Alcotest.test_case "respects function" `Quick test_phase_optimize_respects_function;
        ] );
      ( "doppio",
        [
          Alcotest.test_case "polarity choice" `Quick test_doppio_polarity_choice;
          Alcotest.test_case "covers correct" `Quick test_doppio_covers_correct;
        ] );
    ]
