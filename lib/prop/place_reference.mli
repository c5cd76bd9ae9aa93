(** The tuple-and-[Hashtbl] simulated-annealing placer that
    {!Fpga.Place.place} replaced, kept as the oracle for the
    [fpga/place-reference] property: on every design, arch, seed and
    weight vector the flat-array placer must put every block on the same
    site. *)

val place : ?weights:float array -> Util.Rng.t -> Fpga.Arch.t -> Fpga.Design.t -> (int * int) array
(** Block sites, indexed by block, after the same random initial
    placement and annealing schedule as {!Fpga.Place.place}. The design
    must have at least one block (with none, the move loop draws
    [Util.Rng.int rng 0] and fails an assertion). *)
