module Cube = Logic.Cube
module Cover = Logic.Cover

type result = {
  cover : Cover.t;
  iterations : int;
  initial_cost : int * int;
  final_cost : int * int;
}

let cost c = (Cover.size c, Cover.literal_total c)

(* Cumulative work counters for the runtime metrics layer ([Atomic] so
   parallel workers can share them without locking). [blocker_scans] counts
   off-set cubes inspected by the blocker-count cache; [blocker_scans_naive]
   what the old per-position rescan would have inspected — their ratio is
   the cache's savings. *)
let total_calls = Atomic.make 0
let total_iterations = Atomic.make 0
let total_expand_cubes = Atomic.make 0
let blocker_scans = Atomic.make 0
let blocker_scans_naive = Atomic.make 0

let calls_total () = Atomic.get total_calls
let iterations_total () = Atomic.get total_iterations
let expand_cubes_total () = Atomic.get total_expand_cubes
let blocker_scans_total () = Atomic.get blocker_scans
let blocker_scans_naive_total () = Atomic.get blocker_scans_naive

let default_dc f = Cover.empty ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f)

(* Expand one cube into a prime against the off-set. Inputs are raised
   first (cheapest literals first: positions blocked by the fewest off-set
   cubes are tried first), then the output part is raised. *)
let expand_cube c ~offset =
  let n_in = Cube.num_inputs c and n_out = Cube.num_outputs c in
  let off = Cover.to_array offset in
  let n_off = Array.length off in
  let outs = Cube.outputs c in
  (* Input raises keep the output part, so only off-set cubes whose
     outputs meet it can block one. *)
  let relevant =
    Array.of_list
      (List.filter (fun r -> not (Util.Bitvec.disjoint outs (Cube.outputs r))) (Array.to_list off))
  in
  let candidates =
    List.filter (fun i -> Cube.raw_get c i <> 3) (List.init n_in (fun i -> i))
  in
  (* Raising position i is blocked iff a relevant cube conflicts with the
     current cube nowhere but at i. Up to [Cube.max_mask_inputs] inputs
     each relevant cube's conflict positions are kept as a bit mask, and an
     accepted raise clears bit i in all of them; wider cubes test the
     raised cube itself. *)
  let masks =
    if n_in <= Cube.max_mask_inputs then Some (Array.map (Cube.conflict_mask c) relevant)
    else None
  in
  (* Heuristic order: fewest blockers first. With masks one pass counts
     every position's blockers (the cubes whose mask is that one bit)
     instead of a rescan per position. A cube at distance 0 blocks every
     raise, a constant that cannot change the order, so it is left out. *)
  let blockers = Array.make (max n_in 1) 0 in
  (match masks with
  | Some masks ->
    let rec bit_index m = if m land 1 = 1 then 0 else 1 + bit_index (m lsr 1) in
    Array.iter
      (fun m ->
        if m <> 0 && m land (m - 1) = 0 then begin
          let i = bit_index m in
          blockers.(i) <- blockers.(i) + 1
        end)
      masks
  | None ->
    List.iter
      (fun i ->
        let cand = Cube.raw_set c i 3 in
        Array.iter (fun r -> if Cube.intersects cand r then blockers.(i) <- blockers.(i) + 1) relevant)
      candidates);
  Atomic.incr total_expand_cubes;
  ignore (Atomic.fetch_and_add blocker_scans n_off);
  ignore (Atomic.fetch_and_add blocker_scans_naive (List.length candidates * n_off));
  let ordered =
    List.sort (fun a b -> compare blockers.(a) blockers.(b)) candidates
  in
  let raise_input acc i =
    match masks with
    | Some masks ->
      let keep = lnot (1 lsl i) in
      if Array.exists (fun m -> m land keep = 0) masks then acc
      else begin
        Array.iteri (fun k m -> masks.(k) <- m land keep) masks;
        Cube.raw_set acc i 3
      end
    | None ->
      let cand = Cube.raw_set acc i 3 in
      if Array.exists (Cube.intersects cand) relevant then acc else cand
  in
  let c = List.fold_left raise_input c ordered in
  if Util.Bitvec.is_full (Cube.outputs c) then c
  else begin
    (* The input part is final: an output raise is blocked exactly by the
       off-set cubes whose inputs meet it and whose outputs meet the
       raised output part. *)
    let meets = List.filter (Cube.inputs_meet c) (Array.to_list off) in
    let raise_output acc o =
      if Util.Bitvec.get (Cube.outputs acc) o then acc
      else
        let outs = Util.Bitvec.copy (Cube.outputs acc) in
        Util.Bitvec.set outs o true;
        if List.exists (fun r -> not (Util.Bitvec.disjoint outs (Cube.outputs r))) meets then acc
        else Cube.with_outputs acc outs
    in
    let rec raise_outputs acc o = if o >= n_out then acc else raise_outputs (raise_output acc o) (o + 1) in
    raise_outputs c 0
  end

let expand f ~offset =
  Obs.Span.with_ "espresso.expand" @@ fun () ->
  (* Expand biggest cubes first so that small cubes are more likely to be
     swallowed by already-expanded primes. *)
  let cs =
    List.sort
      (fun a b -> compare (Cube.literal_count a) (Cube.literal_count b))
      (Cover.cubes f)
  in
  let step primes c =
    if List.exists (fun p -> Cube.contains p c) primes then primes
    else expand_cube c ~offset :: primes
  in
  let primes = List.fold_left step [] cs in
  Cover.single_cube_containment
    (Cover.make ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f) (List.rev primes))

(* Each cube is tested against one shared array (the sorted cubes, then
   dc) under an alive mask, so no [others ∪ dc] cover is rebuilt per cube.
   Coverage is a tautology question, which does not depend on cube order. *)
let irredundant ?dc f =
  Obs.Span.with_ "espresso.irredundant" @@ fun () ->
  let dc = match dc with Some d -> d | None -> default_dc f in
  let n_in = Cover.num_inputs f and n_out = Cover.num_outputs f in
  (* Try to remove large cubes last: visiting small cubes first lets them be
     absorbed while big primes stay. *)
  let cs =
    List.sort (fun a b -> compare (Cube.literal_count b) (Cube.literal_count a)) (Cover.cubes f)
  in
  let shared = Cover.union (Cover.make ~n_in ~n_out cs) dc in
  let alive = Array.make (Cover.size shared) true in
  let keep j = alive.(j) in
  List.iteri
    (fun i c ->
      alive.(i) <- false;
      if not (Cover.covers_cube_filtered shared ~keep c) then alive.(i) <- true)
    cs;
  Cover.make ~n_in ~n_out (List.filteri (fun i _ -> alive.(i)) cs)

let irredundant_minimal ?dc f =
  let n_in = Cover.num_inputs f and n_out = Cover.num_outputs f in
  if n_in > 12 then invalid_arg "Minimize.irredundant_minimal: too many inputs";
  let dc = match dc with Some d -> d | None -> default_dc f in
  let cubes = Array.of_list (Cover.cubes f) in
  let nc = Array.length cubes in
  if nc = 0 then f
  else begin
    let tt_on = Logic.Truth_table.of_cover f in
    let tt_dc = Logic.Truth_table.of_cover dc in
    let required = ref [] in
    for m = (1 lsl n_in) - 1 downto 0 do
      for o = n_out - 1 downto 0 do
        if
          Logic.Truth_table.get tt_on ~minterm:m ~output:o
          && not (Logic.Truth_table.get tt_dc ~minterm:m ~output:o)
        then required := (m, o) :: !required
      done
    done;
    let covers j (m, o) =
      Util.Bitvec.get (Cube.outputs cubes.(j)) o
      && Cube.matches cubes.(j) (Array.init n_in (fun i -> m land (1 lsl i) <> 0))
    in
    if !required = [] then Cover.empty ~n_in ~n_out
    else begin
      (* Greedy upper bound, then branch-and-bound over the covering
         table, as in the exact minimizers. *)
      let best = ref [] and best_size = ref max_int in
      let greedy () =
        let uncovered = ref !required in
        let chosen = ref [] in
        while !uncovered <> [] do
          let bestj = ref 0 and bestg = ref (-1) in
          for j = 0 to nc - 1 do
            let g = List.length (List.filter (covers j) !uncovered) in
            if g > !bestg then begin
              bestg := g;
              bestj := j
            end
          done;
          chosen := !bestj :: !chosen;
          uncovered := List.filter (fun r -> not (covers !bestj r)) !uncovered
        done;
        !chosen
      in
      let g = greedy () in
      best := g;
      best_size := List.length g;
      let table =
        List.sort
          (fun (_, a) (_, b) -> compare (List.length a) (List.length b))
          (List.map
             (fun r -> (r, List.filter (fun j -> covers j r) (List.init nc Fun.id)))
             !required)
      in
      let rec bb chosen size remaining =
        if size >= !best_size then ()
        else
          match remaining with
          | [] ->
            best := chosen;
            best_size := size
          | (r, cands) :: rest ->
            if List.exists (fun j -> covers j r) chosen then bb chosen size rest
            else List.iter (fun j -> bb (j :: chosen) (size + 1) rest) cands
      in
      bb [] 0 table;
      let chosen = List.sort_uniq compare !best in
      Cover.make ~n_in ~n_out (List.map (fun j -> cubes.(j)) chosen)
    end
  end

let essentials ?dc f =
  Obs.Span.with_ "espresso.essentials" @@ fun () ->
  let dc = match dc with Some d -> d | None -> default_dc f in
  let shared = Cover.union f dc in
  let n = Cover.size f and all = Cover.to_array shared in
  let ess, rest =
    List.partition
      (fun c ->
        let keep j = j >= n || not (Cube.equal all.(j) c) in
        not (Cover.covers_cube_filtered shared ~keep c))
      (Cover.cubes f)
  in
  ( Cover.make ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f) ess,
    Cover.make ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f) rest )

(* Smallest cube containing the complement of [q] inside the space of cube
   [c] (q is already cofactored by c). Computed per output with the
   single-output complement, then supercubed. Returns None when the
   complement is empty (c is redundant — fully covered by q). *)
let smallest_cube_containing_complement q ~n_in ~n_out ~outs =
  let acc = ref None in
  let join cube =
    acc := Some (match !acc with None -> cube | Some s -> Cube.supercube2 s cube)
  in
  for o = 0 to n_out - 1 do
    if Util.Bitvec.get outs o then begin
      let qo = Cover.restrict_output q o in
      let comp = Cover.complement qo in
      if not (Cover.is_empty comp) then
        List.iter
          (fun cc ->
            let wide =
              Cube.of_literals
                (List.init n_in (Cube.get cc))
                ~outs:(Util.Bitvec.of_list n_out [ o ])
            in
            join wide)
          (Cover.cubes comp)
    end
  done;
  !acc

let reduce ?dc f =
  Obs.Span.with_ "espresso.reduce" @@ fun () ->
  let dc = match dc with Some d -> d | None -> default_dc f in
  let n_in = Cover.num_inputs f and n_out = Cover.num_outputs f in
  (* Visit largest cubes first (espresso's heuristic ordering). *)
  let cs =
    List.sort (fun a b -> compare (Cube.literal_count a) (Cube.literal_count b)) (Cover.cubes f)
  in
  let rec go done_ = function
    | [] -> List.rev done_
    | c :: rest ->
      let others = Cover.make ~n_in ~n_out (List.rev_append done_ rest) in
      let q = Cover.cofactor_cube (Cover.union others dc) ~by:c in
      let c' =
        match
          smallest_cube_containing_complement q ~n_in ~n_out ~outs:(Cube.outputs c)
        with
        | None -> None (* fully covered by the others: drop it *)
        | Some sccc -> Cube.intersect c sccc
      in
      (match c' with
      | None -> go done_ rest
      | Some c' -> go (c' :: done_) rest)
  in
  Cover.make ~n_in ~n_out (go [] cs)

let minimize ?dc ?offset f =
  Obs.Span.with_ "espresso.minimize" @@ fun () ->
  Atomic.incr total_calls;
  let dc = match dc with Some d -> d | None -> default_dc f in
  let initial_cost = cost f in
  if Cover.is_empty f then
    { cover = f; iterations = 0; initial_cost; final_cost = initial_cost }
  else begin
    let offset =
      match offset with Some r -> r | None -> Cover.complement (Cover.union f dc)
    in
    let f = irredundant ~dc (expand f ~offset) in
    let final =
      Obs.Span.with_ "espresso.containment" (fun () -> Cover.single_cube_containment f)
    in
    { cover = final; iterations = 0; initial_cost; final_cost = cost final }
  end

let cover ?dc ?offset f = (minimize ?dc ?offset f).cover

(* Expand visiting the most specific cubes last (the reverse of the main
   heuristic) — a different escape direction for LAST_GASP. *)
let expand_reversed f ~offset =
  let cs =
    List.sort
      (fun a b -> compare (Cube.literal_count b) (Cube.literal_count a))
      (Cover.cubes f)
  in
  let step primes c =
    if List.exists (fun p -> Cube.contains p c) primes then primes
    else expand_cube c ~offset :: primes
  in
  let primes = List.fold_left step [] cs in
  Cover.single_cube_containment
    (Cover.make ~n_in:(Cover.num_inputs f) ~n_out:(Cover.num_outputs f) (List.rev primes))

let minimize_harder ?dc ?(gasp_rounds = 4) f =
  let dc = match dc with Some d -> d | None -> default_dc f in
  if Cover.is_empty f then minimize ~dc f
  else begin
    let offset = Cover.complement (Cover.union f dc) in
    let base = minimize ~dc ~offset f in
    let rec gasp best round =
      if round >= gasp_rounds || Cover.is_empty best then (best, round)
      else begin
        let cand = reduce ~dc best in
        let cand = expand_reversed cand ~offset in
        let cand = irredundant ~dc cand in
        if cost cand < cost best then gasp cand (round + 1) else (best, round)
      end
    in
    let final, iterations = gasp base.cover 0 in
    ignore (Atomic.fetch_and_add total_iterations iterations);
    { base with cover = final; iterations; final_cost = cost final }
  end

let verify ?dc ~original m =
  let dc = match dc with Some d -> d | None -> default_dc original in
  Cover.covers (Cover.union m dc) original && Cover.covers (Cover.union original dc) m
