module Cover = Logic.Cover
module Cube = Logic.Cube

type result = {
  positive : Cover.t;
  negative : Cover.t;
  choice : bool array;
  products_two_level : int;
  products_whirlpool : int;
}

(* Product terms used by output [o] inside a minimized multi-output cover. *)
let products_for cover o =
  List.length
    (List.filter (fun c -> Util.Bitvec.get (Cube.outputs c) o) (Cover.cubes cover))

let minimize ?dc f =
  let n_in = Cover.num_inputs f and n_out = Cover.num_outputs f in
  let dc = match dc with Some d -> d | None -> Cover.empty ~n_in ~n_out in
  let pos = Minimize.cover ~dc f in
  let neg_on = Phase.apply_phases ~dc f (Array.make n_out false) in
  let neg = Minimize.cover ~dc neg_on in
  let choice =
    Array.init n_out (fun o -> products_for pos o <= products_for neg o)
  in
  (* Count each product term once if any choosing output uses it. *)
  let used cover keep =
    List.length
      (List.filter
         (fun c ->
           let outs = Cube.outputs c in
           List.exists (fun o -> keep o && Util.Bitvec.get outs o) (List.init n_out Fun.id))
         (Cover.cubes cover))
  in
  let products_whirlpool =
    used pos (fun o -> choice.(o)) + used neg (fun o -> not choice.(o))
  in
  {
    positive = pos;
    negative = neg;
    choice;
    products_two_level = Cover.size pos;
    products_whirlpool;
  }
