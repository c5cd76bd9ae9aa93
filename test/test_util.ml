(* Tests for the util library: RNG determinism, bit vectors, statistics,
   table rendering. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Rng ----------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Util.Rng.create 42 and b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.check Alcotest.int64 "same stream" (Util.Rng.bits64 a) (Util.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Util.Rng.create 1 and b = Util.Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Util.Rng.bits64 a) (Util.Rng.bits64 b)) then differs := true
  done;
  checkb "different seeds differ" true !differs

let test_rng_int_range () =
  let rng = Util.Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Util.Rng.int rng 13 in
    checkb "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_covers_range () =
  let rng = Util.Rng.create 9 in
  let seen = Array.make 8 false in
  for _ = 1 to 2_000 do
    seen.(Util.Rng.int rng 8) <- true
  done;
  checkb "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Util.Rng.create 5 in
  for _ = 1 to 1_000 do
    let v = Util.Rng.float rng 2.5 in
    checkb "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_bias () =
  let rng = Util.Rng.create 3 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Util.Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  checkb "frequency near 0.3" true (freq > 0.27 && freq < 0.33)

let test_rng_split_independent () =
  let parent = Util.Rng.create 42 in
  let child = Util.Rng.split parent in
  let a = Util.Rng.bits64 parent and b = Util.Rng.bits64 child in
  checkb "parent and child diverge" true (not (Int64.equal a b))

let test_rng_copy () =
  let a = Util.Rng.create 11 in
  ignore (Util.Rng.bits64 a);
  let b = Util.Rng.copy a in
  Alcotest.check Alcotest.int64 "copies agree" (Util.Rng.bits64 a) (Util.Rng.bits64 b)

(* The stream itself, not just its self-consistency: the first outputs of
   the reference SplitMix64 at seed 1234567, then derived draws at a
   fixed seed, so a change of state representation that shifted the
   stream would fail here. *)
let test_rng_published_vector () =
  let rng = Util.Rng.create 1234567 in
  List.iter
    (fun want -> Alcotest.check Alcotest.int64 "bits64" want (Util.Rng.bits64 rng))
    [ 0x599ed017fb08fc85L; 0x2c73f08458540fa5L; 0x883ebce5a3f27c77L ]

let test_rng_pinned_draws () =
  let rng = Util.Rng.create 42 in
  check (Alcotest.list Alcotest.int) "int" [ 853; 72; 964; 941; 812; 265 ]
    (List.init 6 (fun _ -> Util.Rng.int rng 1000));
  check (Alcotest.list (Alcotest.float 0.0)) "float"
    [ 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ]
    (List.init 3 (fun _ -> Util.Rng.float rng 1.0));
  check (Alcotest.list Alcotest.bool) "bool" [ false; true; false; false; true; false ]
    (List.init 6 (fun _ -> Util.Rng.bool rng));
  let child = Util.Rng.split rng in
  checki "split child" 5596 (Util.Rng.int child 1_000_000);
  checki "parent after split" 395997 (Util.Rng.int rng 1_000_000)

let test_rng_shuffle_permutation () =
  let rng = Util.Rng.create 99 in
  let a = Array.init 50 Fun.id in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_pick () =
  let rng = Util.Rng.create 1 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Util.Rng.pick rng a in
    checkb "picked element" true (Array.mem v a)
  done

(* --- Bitvec -------------------------------------------------------------- *)

let test_bitvec_create_empty () =
  let v = Util.Bitvec.create 17 in
  checki "length" 17 (Util.Bitvec.length v);
  checki "popcount 0" 0 (Util.Bitvec.pop_count v);
  checkb "is_empty" true (Util.Bitvec.is_empty v)

let test_bitvec_full () =
  let v = Util.Bitvec.create_full 13 in
  checki "popcount = length" 13 (Util.Bitvec.pop_count v);
  checkb "is_full" true (Util.Bitvec.is_full v)

let test_bitvec_set_get () =
  let v = Util.Bitvec.create 20 in
  Util.Bitvec.set v 0 true;
  Util.Bitvec.set v 7 true;
  Util.Bitvec.set v 8 true;
  Util.Bitvec.set v 19 true;
  checkb "bit 0" true (Util.Bitvec.get v 0);
  checkb "bit 7 (byte boundary)" true (Util.Bitvec.get v 7);
  checkb "bit 8 (byte boundary)" true (Util.Bitvec.get v 8);
  checkb "bit 19" true (Util.Bitvec.get v 19);
  checkb "bit 3 unset" false (Util.Bitvec.get v 3);
  Util.Bitvec.set v 7 false;
  checkb "bit 7 cleared" false (Util.Bitvec.get v 7);
  checki "popcount" 3 (Util.Bitvec.pop_count v)

let test_bitvec_set_ops () =
  let a = Util.Bitvec.of_list 10 [ 1; 3; 5 ] in
  let b = Util.Bitvec.of_list 10 [ 3; 5; 7 ] in
  check (Alcotest.list Alcotest.int) "union" [ 1; 3; 5; 7 ]
    (Util.Bitvec.to_list (Util.Bitvec.union a b));
  check (Alcotest.list Alcotest.int) "inter" [ 3; 5 ]
    (Util.Bitvec.to_list (Util.Bitvec.inter a b));
  check (Alcotest.list Alcotest.int) "diff" [ 1 ] (Util.Bitvec.to_list (Util.Bitvec.diff a b))

let test_bitvec_complement_padding () =
  (* Complement must not set padding bits beyond the length. *)
  let v = Util.Bitvec.of_list 9 [ 0; 8 ] in
  let c = Util.Bitvec.complement v in
  checki "popcount" 7 (Util.Bitvec.pop_count c);
  checkb "bit 0 off" false (Util.Bitvec.get c 0);
  checkb "bit 8 off" false (Util.Bitvec.get c 8);
  checkb "bit 4 on" true (Util.Bitvec.get c 4);
  checkb "double complement" true (Util.Bitvec.equal v (Util.Bitvec.complement c))

let test_bitvec_subset_disjoint () =
  let a = Util.Bitvec.of_list 12 [ 2; 4 ] in
  let b = Util.Bitvec.of_list 12 [ 2; 4; 9 ] in
  let c = Util.Bitvec.of_list 12 [ 0; 1 ] in
  checkb "a ⊆ b" true (Util.Bitvec.subset a b);
  checkb "b ⊄ a" false (Util.Bitvec.subset b a);
  checkb "a,c disjoint" true (Util.Bitvec.disjoint a c);
  checkb "a,b not disjoint" false (Util.Bitvec.disjoint a b)

let test_bitvec_union_inplace () =
  let a = Util.Bitvec.of_list 8 [ 1 ] in
  let b = Util.Bitvec.of_list 8 [ 6 ] in
  Util.Bitvec.union_inplace a b;
  check (Alcotest.list Alcotest.int) "in-place union" [ 1; 6 ] (Util.Bitvec.to_list a);
  check (Alcotest.list Alcotest.int) "b untouched" [ 6 ] (Util.Bitvec.to_list b)

let test_bitvec_compare_consistent () =
  let a = Util.Bitvec.of_list 8 [ 1 ] and b = Util.Bitvec.of_list 8 [ 1 ] in
  checki "equal compare 0" 0 (Util.Bitvec.compare a b);
  checkb "equal" true (Util.Bitvec.equal a b);
  let c = Util.Bitvec.of_list 8 [ 2 ] in
  checkb "different" false (Util.Bitvec.equal a c)

let test_bitvec_iter_set () =
  let v = Util.Bitvec.of_list 16 [ 3; 9; 15 ] in
  let acc = ref [] in
  Util.Bitvec.iter_set (fun i -> acc := i :: !acc) v;
  check (Alcotest.list Alcotest.int) "ascending" [ 3; 9; 15 ] (List.rev !acc)

let test_bitvec_zero_length () =
  let v = Util.Bitvec.create 0 in
  checkb "empty" true (Util.Bitvec.is_empty v);
  checkb "full (vacuously)" true (Util.Bitvec.is_full v);
  checki "popcount" 0 (Util.Bitvec.pop_count v)

(* qcheck properties *)

let bitvec_gen =
  QCheck.Gen.(
    sized (fun n ->
        let len = 1 + (n mod 64) in
        map (fun bits -> Util.Bitvec.of_list len (List.filter (fun i -> i < len) bits))
          (list_size (int_bound 32) (int_bound (len - 1)))))

let arb_bitvec = QCheck.make ~print:(Format.asprintf "%a" Util.Bitvec.pp) bitvec_gen

let prop_union_commutes =
  QCheck.Test.make ~name:"bitvec union commutes" ~count:200
    (QCheck.pair arb_bitvec arb_bitvec) (fun (a, b) ->
      let b' =
        Util.Bitvec.of_list (Util.Bitvec.length a)
          (List.filter (fun i -> i < Util.Bitvec.length a) (Util.Bitvec.to_list b))
      in
      Util.Bitvec.equal (Util.Bitvec.union a b') (Util.Bitvec.union b' a))

let prop_demorgan =
  QCheck.Test.make ~name:"bitvec De Morgan" ~count:200 (QCheck.pair arb_bitvec arb_bitvec)
    (fun (a, b) ->
      let b' =
        Util.Bitvec.of_list (Util.Bitvec.length a)
          (List.filter (fun i -> i < Util.Bitvec.length a) (Util.Bitvec.to_list b))
      in
      Util.Bitvec.equal
        (Util.Bitvec.complement (Util.Bitvec.union a b'))
        (Util.Bitvec.inter (Util.Bitvec.complement a) (Util.Bitvec.complement b')))

(* --- Stats --------------------------------------------------------------- *)

let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_stats_mean () =
  checkf "mean" 2.5 (Util.Stats.mean [ 1.; 2.; 3.; 4. ]);
  checkf "empty mean" 0. (Util.Stats.mean [])

let test_stats_stddev () =
  checkf "constant stddev" 0. (Util.Stats.stddev [ 5.; 5.; 5. ]);
  checkf "known stddev" 2. (Util.Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ])

let test_stats_median () =
  checkf "odd median" 3. (Util.Stats.median [ 5.; 3.; 1. ]);
  checkf "even median" 2.5 (Util.Stats.median [ 4.; 1.; 2.; 3. ])

let test_stats_min_max () =
  let lo, hi = Util.Stats.min_max [ 3.; -1.; 7.; 2. ] in
  checkf "min" (-1.) lo;
  checkf "max" 7. hi;
  Alcotest.check_raises "empty raises" (Invalid_argument "Stats.min_max: empty") (fun () ->
      ignore (Util.Stats.min_max []))

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  checkf "p50" 50. (Util.Stats.percentile 50. xs);
  checkf "p100" 100. (Util.Stats.percentile 100. xs);
  let sorted = Array.of_list xs in
  List.iter
    (fun p ->
      checkf (Printf.sprintf "sorted p%g" p) (Util.Stats.percentile p xs)
        (Util.Stats.percentile_sorted p sorted))
    [ -5.; 0.; 0.5; 25.; 99.9; 100.; 150. ];
  checkf "sorted empty" 0. (Util.Stats.percentile_sorted 50. [||])

let test_stats_summary () =
  let s = Util.Stats.summarize [ 1.; 2.; 3. ] in
  checki "n" 3 s.Util.Stats.n;
  checkf "mean" 2. s.Util.Stats.mean;
  checkf "median" 2. s.Util.Stats.median

let test_stats_ratio () =
  checkf "ratio" 2. (Util.Stats.ratio 4. 2.);
  checkf "div by zero" 0. (Util.Stats.ratio 4. 0.)

(* --- Tableau ------------------------------------------------------------- *)

let test_tableau_render () =
  let t = Util.Tableau.create [ "name"; "value" ] in
  Util.Tableau.add_row t [ "alpha"; "1" ];
  Util.Tableau.add_row t [ "b"; "22" ];
  let s = Util.Tableau.render t in
  checkb "contains header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  let lines = String.split_on_char '\n' (String.trim s) in
  checki "4 lines" 4 (List.length lines)

let test_tableau_pads_short_rows () =
  let t = Util.Tableau.create [ "a"; "b"; "c" ] in
  Util.Tableau.add_row t [ "x" ];
  let s = Util.Tableau.render t in
  checkb "renders" true (String.length s > 0)

let test_tableau_rejects_long_rows () =
  let t = Util.Tableau.create [ "a" ] in
  Alcotest.check_raises "too many cells"
    (Invalid_argument "Tableau.add_row: too many cells") (fun () ->
      Util.Tableau.add_row t [ "1"; "2" ])

let test_tableau_csv () =
  let t = Util.Tableau.create [ "name"; "value" ] in
  Util.Tableau.add_row t [ "plain"; "1" ];
  Util.Tableau.add_rule t;
  Util.Tableau.add_row t [ "with,comma"; "say \"hi\"" ];
  let csv = Util.Tableau.to_csv t in
  check Alcotest.string "csv rendering"
    "name,value\nplain,1\n\"with,comma\",\"say \"\"hi\"\"\"\n" csv

let test_tableau_cells () =
  check Alcotest.string "thousands" "34 960" (Util.Tableau.cell_int 34960);
  check Alcotest.string "negative" "-1 234" (Util.Tableau.cell_int (-1234));
  check Alcotest.string "small" "7" (Util.Tableau.cell_int 7);
  check Alcotest.string "float" "3.14" (Util.Tableau.cell_float 3.14159);
  check Alcotest.string "pct" "44.9%" (Util.Tableau.cell_pct 0.449)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers range" `Quick test_rng_int_covers_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli bias" `Quick test_rng_bernoulli_bias;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "published SplitMix64 vector" `Quick test_rng_published_vector;
          Alcotest.test_case "pinned draws" `Quick test_rng_pinned_draws;
          Alcotest.test_case "shuffle is permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "bitvec",
        [
          Alcotest.test_case "create empty" `Quick test_bitvec_create_empty;
          Alcotest.test_case "create full" `Quick test_bitvec_full;
          Alcotest.test_case "set/get boundaries" `Quick test_bitvec_set_get;
          Alcotest.test_case "set operations" `Quick test_bitvec_set_ops;
          Alcotest.test_case "complement padding" `Quick test_bitvec_complement_padding;
          Alcotest.test_case "subset/disjoint" `Quick test_bitvec_subset_disjoint;
          Alcotest.test_case "union in place" `Quick test_bitvec_union_inplace;
          Alcotest.test_case "compare consistent" `Quick test_bitvec_compare_consistent;
          Alcotest.test_case "iter over set bits" `Quick test_bitvec_iter_set;
          Alcotest.test_case "zero length" `Quick test_bitvec_zero_length;
          QCheck_alcotest.to_alcotest prop_union_commutes;
          QCheck_alcotest.to_alcotest prop_demorgan;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "median" `Quick test_stats_median;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "ratio" `Quick test_stats_ratio;
        ] );
      ( "tableau",
        [
          Alcotest.test_case "render" `Quick test_tableau_render;
          Alcotest.test_case "pads short rows" `Quick test_tableau_pads_short_rows;
          Alcotest.test_case "rejects long rows" `Quick test_tableau_rejects_long_rows;
          Alcotest.test_case "csv export" `Quick test_tableau_csv;
          Alcotest.test_case "cell formatting" `Quick test_tableau_cells;
        ] );
    ]
