(** Multiple-output cubes in positional-cube notation.

    A cube is a product term over [n_in] binary inputs together with the set
    of outputs it feeds. Each input position holds one of three literals:
    {ul
    {- [Zero] — the input appears complemented (the input must be 0);}
    {- [One] — the input appears uncomplemented (the input must be 1);}
    {- [Dc] — the input does not appear (don't care).}}

    Internally a literal is a 2-bit set ([01] = Zero, [10] = One,
    [11] = Dc): bit 0 says "matches input value 0", bit 1 says "matches
    input value 1". The sets are packed 31 literals per 63-bit [int] word
    (bit [2k] / [2k+1] of a word for field [k]), so set operations on cubes
    are word-parallel AND/OR/popcount, exactly as in espresso's
    positional-cube representation; [00] (the empty literal set) never
    appears in a well-formed cube, and padding bits past the last field are
    always 0. A cube denotes the set of (minterm, output) pairs where the
    minterm lies in the input product and the output belongs to the cube's
    output part. *)

type literal = Zero | One | Dc

type t

val make : n_in:int -> n_out:int -> t
(** All-don't-care input part, empty output part. *)

val universe : n_in:int -> n_out:int -> t
(** All-don't-care input part, all outputs set: the full space. *)

val of_literals : literal list -> outs:Util.Bitvec.t -> t

val num_inputs : t -> int

val num_outputs : t -> int

val get : t -> int -> literal
(** Literal at input position [i]. *)

val set : t -> int -> literal -> t
(** Functional update of input position [i]. *)

val outputs : t -> Util.Bitvec.t
(** The output part (do not mutate; treat as read-only). *)

val with_outputs : t -> Util.Bitvec.t -> t

val raw_get : t -> int -> int
(** 2-bit literal set at position [i] (1, 2 or 3). *)

val raw_set : t -> int -> int -> t
(** Functional update with a raw 2-bit literal set (must be 1, 2 or 3). *)

val raw_words : t -> int array
(** Copy of the packed input words (31 2-bit fields per word, padding bits
    zero). Canonical for a given input part — suitable for digests and
    content hashes. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val contains : t -> t -> bool
(** [contains a b] iff cube [b]'s (minterm, output) set is a subset of
    [a]'s. *)

val intersect : t -> t -> t option
(** Set intersection; [None] when empty. *)

val inputs_meet : t -> t -> bool
(** [inputs_meet a b] iff the input parts share a minterm (output parts
    not considered). *)

val intersects : t -> t -> bool
(** [intersects a b] iff the cubes share a (minterm, output) pair —
    equivalent to [distance a b = 0] but early-exits on the first
    conflicting word. *)

val input_universe : t -> bool
(** [true] iff every input position is [Dc] (the input part imposes no
    constraint). *)

val distance : t -> t -> int
(** Number of input positions whose literal sets are disjoint, plus 1 if the
    output parts are disjoint. Distance 0 iff the cubes intersect. *)

val max_mask_inputs : int
(** Widest cubes {!conflict_mask} accepts (62). *)

val conflict_mask : t -> t -> int
(** [conflict_mask a b] has bit [i] set iff the literal sets of [a] and
    [b] at input position [i] are disjoint (output parts not considered),
    so its popcount is the input part of {!distance}. At most
    {!max_mask_inputs} inputs. Feeds expand's raise test. *)

val supercube : t -> t
(** Identity (for symmetry with {!supercube2}). *)

val supercube2 : t -> t -> t
(** Smallest cube containing both arguments. *)

val cofactor : t -> by:t -> t option
(** Espresso generalized cofactor [a / p]; [None] when [a] and [p] are
    disjoint. Input positions: [a_i ∪ ¬p_i]; outputs: [a_o ∪ ¬p_o]. *)

val cofactor_inputs : t -> by:t -> outs:Util.Bitvec.t -> t option
(** The input half of {!cofactor}: [None] when the input parts of [a] and
    [p] are disjoint, else [a]'s input part cofactored by [p]'s with the
    output part [outs]. Output parts are not compared. *)

val cofactor_var : t -> int -> literal -> t option
(** [cofactor_var a i l] = [cofactor a ~by:(set (universe ...) i l)],
    outputs included, without building the universe cube: field [i] is
    checked against [l] and the output part for emptiness, then field [i]
    becomes [Dc]. [Dc] is rejected. *)

val literal_count : t -> int
(** Number of non-[Dc] input positions. *)

val matches : t -> bool array -> bool
(** [matches c minterm] iff the input part of [c] covers the minterm
    (outputs not considered). *)

val pack_minterm : bool array -> int array
(** Pack a minterm into the cube word layout once, for repeated
    {!matches_packed} tests against many cubes of the same arity. *)

val matches_packed : t -> int array -> bool
(** [matches_packed c (pack_minterm m)] = [matches c m], one AND-compare
    per word. *)

val to_string : t -> string
(** Espresso-style text: input part as [0/1/-], space, output part as
    [0/1]. *)

val pp : Format.formatter -> t -> unit
