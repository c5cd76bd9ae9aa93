(* The annealer body is the pre-rewrite Fpga.Place.place unchanged, down
   to its per-move tuple allocation and polymorphic hashing: only the
   placement record it built is reduced to the block locations. *)

module Arch = Fpga.Arch
module Design = Fpga.Design

type t = {
  loc : (int * int) array;
  pi_pads : (int * int) array;
}

let source_loc t = function
  | Design.Pi i -> t.pi_pads.(i)
  | Design.Block b -> t.loc.(b)

let manhattan (x0, y0) (x1, y1) = abs (x0 - x1) + abs (y0 - y1)

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

let place ?weights rng (a : Arch.t) (d : Design.t) =
  let n_blocks = Array.length d.Design.blocks in
  let sites = Arch.sites a in
  if n_blocks > sites then invalid_arg "Place.place: design larger than device";
  let pi_pads = ring_pads a.Arch.grid d.Design.n_pi 0 in
  let po_pads = ring_pads a.Arch.grid (Array.length d.Design.pos) (2 * (a.Arch.grid + 1)) in
  (* Random initial assignment of blocks to distinct sites. *)
  let site_of = Array.init sites Fun.id in
  Util.Rng.shuffle rng site_of;
  let loc =
    Array.init n_blocks (fun b -> (site_of.(b) mod a.Arch.grid, site_of.(b) / a.Arch.grid))
  in
  let occupant = Hashtbl.create sites in
  Array.iteri (fun b xy -> Hashtbl.replace occupant xy b) loc;
  let t = { loc; pi_pads } in
  (* Per-block incident connections for incremental cost; connections are
     id'd in the same order Place.connections emits them (block fanins in
     block order, then POs), so external weights line up. *)
  let incident = Array.make n_blocks [] in
  let n_conns = Design.connection_count d in
  let weight =
    match weights with
    | None -> Array.make n_conns 1.0
    | Some w ->
      if Array.length w <> n_conns then invalid_arg "Place.place: weights length";
      w
  in
  let conn_id = ref 0 in
  let add_conn src dst_of =
    let id = !conn_id in
    incr conn_id;
    (match src with
    | Design.Block b -> incident.(b) <- (id, src, dst_of) :: incident.(b)
    | Design.Pi _ -> ());
    match dst_of with
    | `Block b -> incident.(b) <- (id, src, dst_of) :: incident.(b)
    | `Pad _ -> ()
  in
  Array.iteri
    (fun b (blk : Design.block) ->
      Array.iter (fun s -> add_conn s (`Block b)) blk.Design.fanin)
    d.Design.blocks;
  Array.iteri (fun o s -> add_conn s (`Pad po_pads.(o))) d.Design.pos;
  let conn_len (id, src, dst_of) =
    let s = source_loc t src in
    let e = match dst_of with `Block b -> t.loc.(b) | `Pad xy -> xy in
    weight.(id) *. float_of_int (manhattan s e)
  in
  let local_cost b = List.fold_left (fun acc c -> acc +. conn_len c) 0.0 incident.(b) in
  (* Annealing: swap a block with a random site (occupied or free). *)
  let moves = 400 * sites in
  let temp = ref (2.0 +. (0.02 *. float_of_int n_blocks)) in
  let cooling = exp (log (0.005 /. !temp) /. float_of_int moves) in
  for _ = 1 to moves do
    let b = Util.Rng.int rng n_blocks in
    let sx = Util.Rng.int rng a.Arch.grid and sy = Util.Rng.int rng a.Arch.grid in
    let target = (sx, sy) in
    let old_b = t.loc.(b) in
    if target <> old_b then begin
      let other = Hashtbl.find_opt occupant target in
      let before =
        local_cost b +. (match other with Some o when o <> b -> local_cost o | _ -> 0.0)
      in
      (* Apply *)
      t.loc.(b) <- target;
      (match other with Some o when o <> b -> t.loc.(o) <- old_b | _ -> ());
      let after =
        local_cost b +. (match other with Some o when o <> b -> local_cost o | _ -> 0.0)
      in
      let delta = after -. before in
      let accept = delta <= 0.0 || Util.Rng.float rng 1.0 < exp (-.delta /. !temp) in
      if accept then begin
        Hashtbl.replace occupant target b;
        (match other with
        | Some o when o <> b -> Hashtbl.replace occupant old_b o
        | _ -> Hashtbl.remove occupant old_b)
      end
      else begin
        (* Revert *)
        t.loc.(b) <- old_b;
        match other with Some o when o <> b -> t.loc.(o) <- target | _ -> ()
      end
    end;
    temp := !temp *. cooling
  done;
  t.loc
