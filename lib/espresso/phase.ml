module Cover = Logic.Cover
module Cube = Logic.Cube

type assignment = bool array

type result = {
  phases : assignment;
  cover : Cover.t;
  products_all_positive : int;
  products_optimized : int;
}

(* Output [o]'s cubes of [f], widened from single-output to [n_out]. *)
let widen ~n_out o single =
  let outs = Util.Bitvec.of_list n_out [ o ] in
  Array.map (fun c -> Cube.with_outputs c outs) (Cover.to_array single)

let pos_on f o = widen ~n_out:(Cover.num_outputs f) o (Cover.restrict_output f o)

(* ¬(on_o ∪ dc_o), widened to output [o]: the minterms certainly 0 in
   [f_o], i.e. the on-set of ¬f_o. *)
let neg_on ~dc f o =
  widen ~n_out:(Cover.num_outputs f) o
    (Cover.complement_of_incompletely_specified (Cover.restrict_output f o)
       (Cover.restrict_output dc o))

let assemble f parts =
  Cover.of_array ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f) (Array.concat parts)

let default_dc f = Cover.empty ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f)

let apply_phases ?dc f phases =
  let n_out = Cover.num_outputs f in
  if Array.length phases <> n_out then invalid_arg "Phase.apply_phases";
  let dc = match dc with Some d -> d | None -> default_dc f in
  assemble f (List.init n_out (fun o -> if phases.(o) then pos_on f o else neg_on ~dc f o))

(* [minimize_for phases] = [Minimize.cover ?dc (apply_phases ?dc f
   phases)], cube for cube, from 2·n_out complements shared by every
   assignment. In positive phase output [o] contributes [on_o] to the
   on-set and [neg_o = ¬(on_o ∪ dc_o)] to the off-set; in negative phase
   [neg_o] and [¬(neg_o ∪ dc_o)]. [Cover.complement] emits its per-output
   parts in ascending output order, so concatenating the chosen parts that
   way is exactly the off-set [minimize] would compute. *)
let minimizer ?dc f =
  let n_out = Cover.num_outputs f in
  let dc = match dc with Some d -> d | None -> default_dc f in
  let on = Array.init n_out (pos_on f) in
  let neg = Array.init n_out (neg_on ~dc f) in
  let neg_off = Array.init n_out (fun o -> neg_on ~dc (assemble f [ neg.(o) ]) o) in
  fun phases ->
    let pick p n = List.init n_out (fun o -> if phases.(o) then p.(o) else n.(o)) in
    Minimize.cover ~dc ~offset:(assemble f (pick neg neg_off)) (assemble f (pick on neg))

let optimize_exhaustive ?dc f =
  let n_out = Cover.num_outputs f in
  if n_out > 10 then invalid_arg "Phase.optimize_exhaustive: too many outputs";
  let minimize_for = minimizer ?dc f in
  let all_pos = Array.make n_out true in
  let base = minimize_for all_pos in
  let best_cover = ref base and best_phases = ref (Array.copy all_pos) in
  let best_size = ref (Cover.size base) in
  for mask = 1 to (1 lsl n_out) - 1 do
    let phases = Array.init n_out (fun o -> mask land (1 lsl o) = 0) in
    let m = minimize_for phases in
    if Cover.size m < !best_size then begin
      best_size := Cover.size m;
      best_cover := m;
      best_phases := phases
    end
  done;
  {
    phases = !best_phases;
    cover = !best_cover;
    products_all_positive = Cover.size base;
    products_optimized = !best_size;
  }

let optimize ?dc ?(max_rounds = 3) f =
  let n_out = Cover.num_outputs f in
  let minimize_for = minimizer ?dc f in
  let all_pos = Array.make n_out true in
  let base = minimize_for all_pos in
  let best_cover = ref base and best_phases = ref (Array.copy all_pos) in
  let best_size = ref (Cover.size base) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for o = 0 to n_out - 1 do
      let cand = Array.copy !best_phases in
      cand.(o) <- not cand.(o);
      let m = minimize_for cand in
      if Cover.size m < !best_size then begin
        best_size := Cover.size m;
        best_cover := m;
        best_phases := cand;
        improved := true
      end
    done
  done;
  {
    phases = !best_phases;
    cover = !best_cover;
    products_all_positive = Cover.size base;
    products_optimized = !best_size;
  }
