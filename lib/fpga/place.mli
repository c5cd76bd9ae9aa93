(** Simulated-annealing placement of design blocks on the CLB grid.

    Primary inputs and outputs live on perimeter pads; blocks occupy grid
    sites. The cost is total Manhattan length over all connections —
    the quantity the router's congestion and delay both follow. *)

type t

val place : ?weights:float array -> Util.Rng.t -> Arch.t -> Design.t -> t
(** Random initial placement refined by annealing (deterministic given the
    generator). Raises [Invalid_argument] if the design has more blocks
    than the architecture has sites. [weights] (in {!connections} order,
    default all 1) scale each connection's contribution to the cost —
    timing-driven placement passes criticalities here. A design with no
    blocks only places its pads (the initial shuffle still draws from
    the generator). *)

val arch : t -> Arch.t

val design : t -> Design.t

val block_loc : t -> int -> int * int
(** Grid coordinates of a block's site. *)

val pi_loc : t -> int -> int * int
(** Pad coordinates of a primary input (on the perimeter ring). *)

val po_loc : t -> int -> int * int
(** Pad coordinates of a primary output. *)

val source_loc : t -> Design.source -> int * int

type connection = { src : Design.source; dst_loc : int * int }

val connections : t -> connection list
(** Every routed connection: block fanins and PO hookups. *)

val total_wirelength : t -> int
(** Manhattan length summed over {!connections}. *)
