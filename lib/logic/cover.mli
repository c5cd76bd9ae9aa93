(** Covers: sets of multiple-output cubes denoting two-level logic.

    A cover represents, for each output, the union of its cubes' input
    products. All cubes of a cover share the same input/output arity. The
    module provides the classic espresso set operations — containment,
    tautology, complement, generalized cofactor — implemented with the unate
    recursive paradigm. *)

type t

val make : n_in:int -> n_out:int -> Cube.t list -> t
(** Builds a cover; every cube must have the stated arity. *)

val of_array : n_in:int -> n_out:int -> Cube.t array -> t
(** As {!make} from an array (the array is copied). *)

val empty : n_in:int -> n_out:int -> t

val num_inputs : t -> int

val num_outputs : t -> int

val cubes : t -> Cube.t list
(** The cubes as a fresh list (O(n) copy; prefer {!to_array} in hot
    loops). *)

val to_array : t -> Cube.t array
(** The underlying cube array, without copying — treat as read-only. *)

val size : t -> int
(** Number of cubes. O(1). *)

val literal_total : t -> int
(** Total input-literal count over all cubes (a standard cost metric).
    Cached after the first computation. *)

val is_empty : t -> bool

val add : t -> Cube.t -> t

val union : t -> t -> t
(** Cube-list union (no simplification). Arities must agree. *)

val equal_as_sets : t -> t -> bool
(** Equality of the cube {e lists} up to order and duplicates (not logical
    equivalence; see {!equivalent}). *)

val single_cube_containment : t -> t
(** Remove every cube contained in another single cube of the cover.
    Sort-based: cubes are visited by ascending literal count so only
    already-kept cubes need be tested as containers. *)

val scc_calls_total : unit -> int
(** Cumulative {!single_cube_containment} invocations across the program
    (all domains). Feeds the runtime metrics. *)

val scc_checks_total : unit -> int
(** Cumulative containment tests actually run by
    {!single_cube_containment}. *)

val scc_pairs_total : unit -> int
(** Cumulative ordered cube pairs an all-pairs containment scan would have
    inspected; [1 - checks/pairs] is the prune rate of the sort-based
    algorithm. *)

val eval : t -> bool array -> Util.Bitvec.t
(** [eval f minterm] is the set of outputs on for that input assignment. *)

val restrict_output : t -> int -> t
(** [restrict_output f o] keeps only cubes feeding output [o], as a
    single-output cover (n_out = 1, every kept cube's output part = {0}). *)

val cofactor_cube : t -> by:Cube.t -> t
(** Generalized cofactor of every cube (dropping cubes disjoint from [by]). *)

val cofactor_var : t -> int -> Cube.literal -> t
(** Shannon cofactor with respect to input [i] set to a value ([Dc] is
    rejected). *)

val tautology : t -> bool
(** [true] iff the cover covers the whole (minterm × output) space — i.e.
    every output is the constant-1 function. Unate recursive paradigm. *)

val covers_cube : t -> Cube.t -> bool
(** [covers_cube f c] iff every (minterm, output) of [c] is covered by [f]. *)

val covers_cube_filtered : t -> keep:(int -> bool) -> Cube.t -> bool
(** [covers_cube_filtered t ~keep c] = [covers_cube t' c], where [t'] holds
    the cubes of [t] at the indices [keep] accepts, without building [t'].
    Lets a caller test many cubes against subsets of one shared array. *)

val covers : t -> t -> bool
(** [covers f g] iff every cube of [g] is covered by [f]. *)

val equivalent : t -> t -> bool
(** Logical equivalence (mutual covering). *)

val complement : t -> t
(** Cover of the complement, computed per output with unate recursion.
    The result's cubes each carry a single output. *)

val sharp : t -> t -> t
(** [sharp a b] is the set difference [a \ b] as a cover
    ([a ∩ ¬b], simplified by single-cube containment). *)

val complement_of_incompletely_specified : t -> t -> t
(** [complement_of_incompletely_specified on dc] is [¬(on ∪ dc)]: the
    minterms certainly off in the incompletely specified function. *)

val minterms : t -> t
(** Expansion into minterm cubes (exponential; intended for small functions
    and test oracles). Each result cube has a full input part (no [Dc]) and
    a single output. *)

val random : Util.Rng.t -> n_in:int -> n_out:int -> n_cubes:int -> dc_bias:float -> t
(** Random cover for tests and synthetic benchmarks: each input position is
    [Dc] with probability [dc_bias], else a random polarity; each cube feeds
    a uniformly chosen non-empty output subset. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
