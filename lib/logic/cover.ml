type t = {
  n_in : int;
  n_out : int;
  cubes : Cube.t array;
  mutable lits : int; (* cached literal_total; -1 = not yet computed *)
}

(* Work counters for the runtime metrics layer ([Atomic] so parallel
   minimization domains can share them). [scc_pairs] accumulates the
   pair count an all-pairs containment scan would have inspected,
   [scc_checks] the containment tests the sort-based algorithm actually
   ran — their ratio is the containment-prune rate. *)
let scc_calls = Atomic.make 0
let scc_checks = Atomic.make 0
let scc_pairs = Atomic.make 0

let scc_calls_total () = Atomic.get scc_calls
let scc_checks_total () = Atomic.get scc_checks
let scc_pairs_total () = Atomic.get scc_pairs

let check_arity t c =
  if Cube.num_inputs c <> t.n_in || Cube.num_outputs c <> t.n_out then
    invalid_arg "Cover: cube arity mismatch"

(* Internal constructor: the cubes are known well-arity (built from an
   existing cover's cubes), so skip validation and own the array. *)
let unsafe ~n_in ~n_out cubes = { n_in; n_out; cubes; lits = -1 }

let make ~n_in ~n_out cubes =
  let t = unsafe ~n_in ~n_out (Array.of_list cubes) in
  Array.iter (check_arity t) t.cubes;
  t

let of_array ~n_in ~n_out cubes =
  let t = unsafe ~n_in ~n_out (Array.copy cubes) in
  Array.iter (check_arity t) t.cubes;
  t

let empty ~n_in ~n_out = unsafe ~n_in ~n_out [||]

let num_inputs t = t.n_in
let num_outputs t = t.n_out
let cubes t = Array.to_list t.cubes
let to_array t = t.cubes
let size t = Array.length t.cubes
let is_empty t = Array.length t.cubes = 0

let literal_total t =
  if t.lits < 0 then
    t.lits <- Array.fold_left (fun acc c -> acc + Cube.literal_count c) 0 t.cubes;
  t.lits

let add t c =
  check_arity t c;
  let n = Array.length t.cubes in
  let cubes = Array.make (n + 1) c in
  Array.blit t.cubes 0 cubes 1 n;
  let lits = if t.lits < 0 then -1 else t.lits + Cube.literal_count c in
  { t with cubes; lits }

let union a b =
  if a.n_in <> b.n_in || a.n_out <> b.n_out then invalid_arg "Cover.union: arity mismatch";
  let lits = if a.lits < 0 || b.lits < 0 then -1 else a.lits + b.lits in
  { a with cubes = Array.append a.cubes b.cubes; lits }

let equal_as_sets a b =
  let mem c cs = Array.exists (Cube.equal c) cs in
  a.n_in = b.n_in && a.n_out = b.n_out
  && Array.for_all (fun c -> mem c b.cubes) a.cubes
  && Array.for_all (fun c -> mem c a.cubes) b.cubes

(* Single-cube containment, sort-based. A cube is dropped iff another
   single cube contains it; among equal duplicates the last occurrence
   survives (matching the historical scan exactly). Sorting by
   (literal count asc, output popcount desc, index desc) guarantees every
   potential container of a cube is processed before it — a container has
   fewer-or-equal literals, and ties force equality where the index order
   picks the later duplicate — so one pass keeping cubes not contained in
   an already-kept cube reproduces the old all-pairs result with far fewer
   containment tests. Output preserves original cube order. *)
let single_cube_containment t =
  Atomic.incr scc_calls;
  let n = Array.length t.cubes in
  if n <= 1 then t
  else begin
    ignore (Atomic.fetch_and_add scc_pairs (n * (n - 1)));
    let lits = Array.map Cube.literal_count t.cubes in
    let pops = Array.map (fun c -> Util.Bitvec.pop_count (Cube.outputs c)) t.cubes in
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        let c = Stdlib.compare lits.(i) lits.(j) in
        if c <> 0 then c
        else
          let c = Stdlib.compare pops.(j) pops.(i) in
          if c <> 0 then c else Stdlib.compare j i)
      order;
    let kept_flag = Array.make n false in
    let kept = ref [] in
    let checks = ref 0 in
    Array.iter
      (fun i ->
        let ci = t.cubes.(i) in
        let contained =
          List.exists
            (fun j ->
              incr checks;
              Cube.contains t.cubes.(j) ci)
            !kept
        in
        if not contained then begin
          kept_flag.(i) <- true;
          kept := i :: !kept
        end)
      order;
    ignore (Atomic.fetch_and_add scc_checks !checks);
    let n_kept = List.length !kept in
    if n_kept = n then t
    else begin
      let out = Array.make n_kept t.cubes.(0) in
      let next = ref 0 in
      for i = 0 to n - 1 do
        if kept_flag.(i) then begin
          out.(!next) <- t.cubes.(i);
          incr next
        end
      done;
      unsafe ~n_in:t.n_in ~n_out:t.n_out out
    end
  end

let eval t minterm =
  let acc = Util.Bitvec.create t.n_out in
  let packed = Cube.pack_minterm minterm in
  Array.iter
    (fun c ->
      if Cube.matches_packed c packed then Util.Bitvec.union_inplace acc (Cube.outputs c))
    t.cubes;
  acc

let filter_map_cubes t ~n_out f =
  let n = Array.length t.cubes in
  if n = 0 then unsafe ~n_in:t.n_in ~n_out [||]
  else begin
    let out = Array.make n t.cubes.(0) in
    let m = ref 0 in
    for i = 0 to n - 1 do
      match f t.cubes.(i) with
      | None -> ()
      | Some c ->
        out.(!m) <- c;
        incr m
    done;
    unsafe ~n_in:t.n_in ~n_out (if !m = n then out else Array.sub out 0 !m)
  end

let restrict_output t o =
  let on = Util.Bitvec.of_list 1 [ 0 ] in
  filter_map_cubes t ~n_out:1 (fun c ->
      if Util.Bitvec.get (Cube.outputs c) o then Some (Cube.with_outputs c on) else None)

let cofactor_cube t ~by =
  filter_map_cubes t ~n_out:t.n_out (fun c -> Cube.cofactor c ~by)

let cofactor_var t i lit =
  (match lit with
  | Cube.Dc -> invalid_arg "Cover.cofactor_var: Dc"
  | Cube.Zero | Cube.One -> ());
  filter_map_cubes t ~n_out:t.n_out (fun c -> Cube.cofactor_var c i lit)

(* --- Unate recursive paradigm ------------------------------------------- *)

(* A cube's input part is "all don't care" iff it imposes no input
   constraint; with a full output part it covers the whole space. The
   recursions below work on covers whose output parts are already full
   (guaranteed by entry points that cofactor per output). *)

let input_universe = Cube.input_universe

(* Most binate variable: maximise the number of cubes in which the variable
   appears; tie-break on balance between 0- and 1-phase occurrences. Returns
   None when the cover is unate in every variable that appears. *)
let most_binate_var t =
  let zeros = Array.make t.n_in 0 and ones = Array.make t.n_in 0 in
  Array.iter
    (fun c ->
      for i = 0 to t.n_in - 1 do
        match Cube.raw_get c i with
        | 1 -> zeros.(i) <- zeros.(i) + 1
        | 2 -> ones.(i) <- ones.(i) + 1
        | _ -> ()
      done)
    t.cubes;
  let best = ref None in
  for i = 0 to t.n_in - 1 do
    if zeros.(i) > 0 && ones.(i) > 0 then begin
      let score = (zeros.(i) + ones.(i), -abs (zeros.(i) - ones.(i))) in
      match !best with
      | Some (_, s) when s >= score -> ()
      | _ -> best := Some (i, score)
    end
  done;
  match !best with Some (i, _) -> Some i | None -> None

(* Any variable that actually appears (used when the cover is unate but we
   still want to recurse — not needed for tautology thanks to the unate leaf
   rule, but kept for the complement). *)
let any_active_var t =
  let active i = Array.exists (fun c -> Cube.raw_get c i <> 3) t.cubes in
  let rec go i = if i >= t.n_in then None else if active i then Some i else go (i + 1) in
  go 0

let rec tautology_inputs t =
  if Array.exists input_universe t.cubes then true
  else if Array.length t.cubes = 0 then false
  else
    match most_binate_var t with
    | None ->
      (* Unate cover: tautology iff it contains the universal cube, which we
         already checked. *)
      false
    | Some j ->
      tautology_inputs (cofactor_var t j Cube.Zero)
      && tautology_inputs (cofactor_var t j Cube.One)

let tautology t =
  if t.n_out = 0 then true
  else
    let rec go o =
      o >= t.n_out
      || (tautology_inputs (restrict_output t o) && go (o + 1))
    in
    go 0

(* Per output [o] of [c], the kept cubes feeding [o] are cofactored by [c]
   straight into one single-output cover, cube for cube what
   [cofactor_cube (restrict_output t o) ~by:c] gives, then tested for
   tautology. *)
let covers_cube_filtered t ~keep c =
  check_arity t c;
  let outs = Cube.outputs c in
  let one = Util.Bitvec.of_list 1 [ 0 ] in
  let n = Array.length t.cubes in
  let cofactored = Array.make n c in
  let rec check_output o =
    if o >= t.n_out then true
    else if not (Util.Bitvec.get outs o) then check_output (o + 1)
    else begin
      let m = ref 0 in
      for j = 0 to n - 1 do
        let a = t.cubes.(j) in
        if keep j && Util.Bitvec.get (Cube.outputs a) o then
          match Cube.cofactor_inputs a ~by:c ~outs:one with
          | None -> ()
          | Some x ->
            cofactored.(!m) <- x;
            incr m
      done;
      tautology_inputs (unsafe ~n_in:t.n_in ~n_out:1 (Array.sub cofactored 0 !m))
      && check_output (o + 1)
    end
  in
  check_output 0

let covers_cube t c = covers_cube_filtered t ~keep:(fun _ -> true) c

let covers t g = Array.for_all (covers_cube t) g.cubes

let equivalent a b = covers a b && covers b a

(* Complement of a single-output cover (output parts assumed full width 1),
   by unate recursion: ¬F = x'·¬F_{x'} ∪ x·¬F_x, merged with the branch
   literal. Base cases: empty cover → universe; cover containing the
   universal cube → empty; single cube → De Morgan. *)
let complement_single t =
  let out1 = Util.Bitvec.of_list 1 [ 0 ] in
  let universe = Cube.universe ~n_in:t.n_in ~n_out:1 in
  let demorgan c =
    let acc = ref [] in
    for i = 0 to t.n_in - 1 do
      match Cube.raw_get c i with
      | 3 -> ()
      | v ->
        (* flip within the 2-bit domain *)
        let flipped = lnot v land 3 in
        acc := Cube.raw_set universe i flipped :: !acc
    done;
    !acc
  in
  let rec go t =
    if Array.exists input_universe t.cubes then []
    else
      match Array.length t.cubes with
      | 0 -> [ universe ]
      | 1 -> demorgan t.cubes.(0)
      | _ ->
        let j =
          match most_binate_var t with
          | Some j -> j
          | None -> (
            match any_active_var t with
            | Some j -> j
            | None -> assert false (* some cube would be the universe *))
        in
        let left = go (cofactor_var t j Cube.Zero) in
        let right = go (cofactor_var t j Cube.One) in
        List.map (fun c -> Cube.set c j Cube.Zero) left
        @ List.map (fun c -> Cube.set c j Cube.One) right
  in
  let cubes = go t in
  single_cube_containment
    (unsafe ~n_in:t.n_in ~n_out:1
       (Array.of_list (List.map (fun c -> Cube.with_outputs c out1) cubes)))

let complement t =
  if t.n_out = 0 then { t with cubes = [||]; lits = 0 }
  else begin
    let parts = ref [] in
    for o = t.n_out - 1 downto 0 do
      let single = complement_single (restrict_output t o) in
      let outs = Util.Bitvec.of_list t.n_out [ o ] in
      parts := List.map (fun c -> Cube.with_outputs c outs) (cubes single) @ !parts
    done;
    unsafe ~n_in:t.n_in ~n_out:t.n_out (Array.of_list !parts)
  end

let sharp a b =
  if a.n_in <> b.n_in || a.n_out <> b.n_out then invalid_arg "Cover.sharp: arity mismatch";
  let nb = complement b in
  let acc = ref [] in
  for i = Array.length a.cubes - 1 downto 0 do
    let c = a.cubes.(i) in
    for j = Array.length nb.cubes - 1 downto 0 do
      match Cube.intersect c nb.cubes.(j) with
      | None -> ()
      | Some x -> acc := x :: !acc
    done
  done;
  single_cube_containment (unsafe ~n_in:a.n_in ~n_out:a.n_out (Array.of_list !acc))

let complement_of_incompletely_specified on dc = complement (union on dc)

let minterms t =
  if t.n_in > 24 then invalid_arg "Cover.minterms: too many inputs";
  let total = 1 lsl t.n_in in
  let acc = ref [] in
  let minterm_cube idx o =
    let lits =
      List.init t.n_in (fun i -> if idx land (1 lsl i) <> 0 then Cube.One else Cube.Zero)
    in
    Cube.of_literals lits ~outs:(Util.Bitvec.of_list t.n_out [ o ])
  in
  for idx = total - 1 downto 0 do
    let assignment = Array.init t.n_in (fun i -> idx land (1 lsl i) <> 0) in
    let outs = eval t assignment in
    Util.Bitvec.iter_set (fun o -> acc := minterm_cube idx o :: !acc) outs
  done;
  unsafe ~n_in:t.n_in ~n_out:t.n_out (Array.of_list !acc)

let random rng ~n_in ~n_out ~n_cubes ~dc_bias =
  let cube () =
    let lits =
      List.init n_in (fun _ ->
          if Util.Rng.bernoulli rng dc_bias then Cube.Dc
          else if Util.Rng.bool rng then Cube.One
          else Cube.Zero)
    in
    let outs = Util.Bitvec.create n_out in
    Util.Bitvec.set outs (Util.Rng.int rng n_out) true;
    for o = 0 to n_out - 1 do
      if Util.Rng.bernoulli rng (1.0 /. float_of_int (2 * n_out)) then
        Util.Bitvec.set outs o true
    done;
    Cube.of_literals lits ~outs
  in
  unsafe ~n_in ~n_out (Array.of_list (List.init n_cubes (fun _ -> cube ())))

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iter (fun c -> Format.fprintf fmt "%a@," Cube.pp c) t.cubes;
  Format.fprintf fmt "@]"

let to_string t = String.concat "\n" (List.map Cube.to_string (cubes t))
