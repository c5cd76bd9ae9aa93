type t = {
  arch : Arch.t;
  design : Design.t;
  loc : (int * int) array;
  pi_pads : (int * int) array;
  po_pads : (int * int) array;
}

let arch t = t.arch
let design t = t.design

let block_loc t b = t.loc.(b)
let pi_loc t i = t.pi_pads.(i)
let po_loc t o = t.po_pads.(o)

let source_loc t = function
  | Design.Pi i -> t.pi_pads.(i)
  | Design.Block b -> t.loc.(b)

type connection = { src : Design.source; dst_loc : int * int }

let connections t =
  let conns = ref [] in
  Array.iteri
    (fun b (blk : Design.block) ->
      Array.iter (fun s -> conns := { src = s; dst_loc = t.loc.(b) } :: !conns) blk.Design.fanin)
    t.design.Design.blocks;
  Array.iteri (fun o s -> conns := { src = s; dst_loc = t.po_pads.(o) } :: !conns) t.design.Design.pos;
  List.rev !conns

let manhattan (x0, y0) (x1, y1) = abs (x0 - x1) + abs (y0 - y1)

let total_wirelength t =
  let len = ref 0 in
  Array.iteri
    (fun b (blk : Design.block) ->
      Array.iter (fun s -> len := !len + manhattan (source_loc t s) t.loc.(b)) blk.Design.fanin)
    t.design.Design.blocks;
  Array.iteri (fun o s -> len := !len + manhattan (source_loc t s) t.po_pads.(o)) t.design.Design.pos;
  !len

(* Pads sit on a ring just outside the grid, spread uniformly. *)
let ring_pads grid n offset =
  let perimeter = 4 * (grid + 1) in
  Array.init n (fun k ->
      let p = (offset + (k * perimeter / max 1 n)) mod perimeter in
      let side = p / (grid + 1) and along = p mod (grid + 1) in
      match side with
      | 0 -> (along, -1)
      | 1 -> (grid, along)
      | 2 -> (grid - along, grid)
      | _ -> (-1, grid - along))

(* Weighted length of block [b]'s incident connections at the current
   coordinates, summed in CSR order from 0.0. *)
let[@inline] local_cost lx ly start ends wts b =
  let bx = lx.(b) and by = ly.(b) in
  let acc = ref 0.0 in
  for k = start.(b) to start.(b + 1) - 1 do
    let e = ends.(k) in
    acc := !acc +. (wts.(k) *. float_of_int (abs (bx - lx.(e)) + abs (by - ly.(e))))
  done;
  !acc

let place ?weights rng (a : Arch.t) (d : Design.t) =
  let n_blocks = Array.length d.Design.blocks in
  let grid = a.Arch.grid in
  let sites = Arch.sites a in
  if n_blocks > sites then invalid_arg "Place.place: design larger than device";
  let n_pi = d.Design.n_pi in
  let pi_pads = ring_pads grid n_pi 0 in
  let po_pads = ring_pads grid (Array.length d.Design.pos) (2 * (grid + 1)) in
  (* Random initial assignment of blocks to distinct sites. *)
  let site_of = Array.init sites Fun.id in
  Util.Rng.shuffle rng site_of;
  let n_conns = Design.connection_count d in
  let weight =
    match weights with
    | None -> Array.make n_conns 1.0
    | Some w ->
      if Array.length w <> n_conns then invalid_arg "Place.place: weights length";
      w
  in
  (* Endpoint [e] sits at ([lx.(e)], [ly.(e)]): blocks first, then the PI
     pads and the PO pads as fixed endpoints, so a cost term never asks
     what kind of endpoint it measures to. [occupant] maps site
     [x + y * grid] to its block, -1 when free. *)
  let block_xy = Array.init n_blocks (fun b -> (site_of.(b) mod grid, site_of.(b) / grid)) in
  let end_xy = Array.concat [ block_xy; pi_pads; po_pads ] in
  let lx = Array.map fst end_xy and ly = Array.map snd end_xy in
  let occupant = Array.make sites (-1) in
  for b = 0 to n_blocks - 1 do
    occupant.(site_of.(b)) <- b
  done;
  (* Each block's incident connections in CSR form: entries [start.(b)]
     to [start.(b + 1) - 1] hold the far endpoint and the weight.
     Connection ids follow {!connections} order (block fanins in block
     order, then POs), so external weights line up. Prepending in id
     order leaves each block's entries in descending id, the order its
     cost is summed in: with non-integer weights the placement depends
     on it. *)
  let incident = Array.make n_blocks [] in
  let id = ref 0 in
  let add_conn s dst =
    let src = match s with Design.Block b -> b | Design.Pi i -> n_blocks + i in
    if src < n_blocks then incident.(src) <- (dst, !id) :: incident.(src);
    if dst < n_blocks then incident.(dst) <- (src, !id) :: incident.(dst);
    incr id
  in
  Array.iteri (fun b (blk : Design.block) -> Array.iter (fun s -> add_conn s b) blk.Design.fanin)
    d.Design.blocks;
  Array.iteri (fun o s -> add_conn s (n_blocks + n_pi + o)) d.Design.pos;
  let start = Array.make (n_blocks + 1) 0 in
  Array.iteri (fun b l -> start.(b + 1) <- start.(b) + List.length l) incident;
  let ends = Array.make start.(n_blocks) 0 and wts = Array.make start.(n_blocks) 0.0 in
  Array.iteri
    (fun b l ->
      List.iteri
        (fun k (far, c) ->
          ends.(start.(b) + k) <- far;
          wts.(start.(b) + k) <- weight.(c))
        l)
    incident;
  (* Annealing: swap a block with a random site (occupied or free). A
     design with no blocks has nothing to move. *)
  if n_blocks > 0 then begin
    let moves = 400 * sites in
    let temp = ref (2.0 +. (0.02 *. float_of_int n_blocks)) in
    let cooling = exp (log (0.005 /. !temp) /. float_of_int moves) in
    for _ = 1 to moves do
      let b = Util.Rng.int rng n_blocks in
      let sx = Util.Rng.int rng grid and sy = Util.Rng.int rng grid in
      let bx = lx.(b) and by = ly.(b) in
      if sx <> bx || sy <> by then begin
        let o = occupant.(sx + (sy * grid)) in
        let before =
          local_cost lx ly start ends wts b
          +. if o >= 0 then local_cost lx ly start ends wts o else 0.0
        in
        lx.(b) <- sx;
        ly.(b) <- sy;
        if o >= 0 then begin
          lx.(o) <- bx;
          ly.(o) <- by
        end;
        let after =
          local_cost lx ly start ends wts b
          +. if o >= 0 then local_cost lx ly start ends wts o else 0.0
        in
        let delta = after -. before in
        if delta <= 0.0 || Util.Rng.float rng 1.0 < exp (-.delta /. !temp) then begin
          occupant.(sx + (sy * grid)) <- b;
          occupant.(bx + (by * grid)) <- o
        end
        else begin
          lx.(b) <- bx;
          ly.(b) <- by;
          if o >= 0 then begin
            lx.(o) <- sx;
            ly.(o) <- sy
          end
        end
      end;
      temp := !temp *. cooling
    done
  end;
  let loc = Array.init n_blocks (fun b -> (lx.(b), ly.(b))) in
  { arch = a; design = d; loc; pi_pads; po_pads }
