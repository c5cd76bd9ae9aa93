(** Heuristic two-level minimization in the espresso style.

    The minimizer receives an on-set cover [f] and a don't-care cover [d]
    and returns a smaller prime, irredundant cover of the same (incompletely
    specified) function:

    {ol
    {- compute the off-set [r = ¬(f ∪ d)] (or take it from the caller);}
    {- EXPAND every cube against [r] into a prime, discarding covered
       cubes;}
    {- IRREDUNDANT: drop cubes covered by the rest;}
    {- single-cube containment.}}

    There is no essentials split and no REDUCE loop in {!minimize}: after
    IRREDUNDANT no cube is covered by the others ∪ [d], which is exactly
    the relative-essential test, so every cube is essential and the loop
    would have nothing to work on. REDUCE serves {!minimize_harder}'s
    LAST_GASP rounds.

    Cost is (number of cubes, total literals), lexicographic. *)

type result = {
  cover : Logic.Cover.t;  (** minimized on-set *)
  iterations : int;
      (** LAST_GASP rounds {!minimize_harder} accepted; always 0 from
          {!minimize} *)
  initial_cost : int * int;  (** (cubes, literals) before minimization *)
  final_cost : int * int;  (** (cubes, literals) after minimization *)
}

val minimize : ?dc:Logic.Cover.t -> ?offset:Logic.Cover.t -> Logic.Cover.t -> result
(** [minimize ?dc ?offset f] minimizes [f] under the optional don't-care
    set (default empty). [offset], when given, must be
    [Cover.complement (Cover.union f dc)] cube for cube; a caller that
    already holds it (phase assignment, {!minimize_harder}) saves the
    complement. *)

val calls_total : unit -> int
(** Cumulative {!minimize} invocations across the program (all domains).
    Feeds the runtime metrics. *)

val iterations_total : unit -> int
(** Cumulative LAST_GASP rounds accepted by {!minimize_harder} across the
    program ({!minimize} adds none). *)

val expand_cubes_total : unit -> int
(** Cumulative cubes expanded against an off-set across the program. *)

val blocker_scans_total : unit -> int
(** Cumulative off-set cubes inspected by expand's one-pass blocker-count
    cache. *)

val blocker_scans_naive_total : unit -> int
(** Off-set cubes the pre-cache per-position rescan would have inspected
    for the same work; [1 - scans/naive] is the cache's savings. *)

val cover : ?dc:Logic.Cover.t -> ?offset:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** Convenience: [(minimize ?dc ?offset f).cover]. *)

val minimize_harder : ?dc:Logic.Cover.t -> ?gasp_rounds:int -> Logic.Cover.t -> result
(** {!minimize} followed by LAST_GASP-style escape attempts: up to
    [gasp_rounds] (default 4) rounds of reduce → expand-in-reverse-order →
    irredundant, keeping only improvements; [iterations] counts the
    rounds kept. Computes the off-set once for all passes. Never worse
    than {!minimize}. *)

val expand : Logic.Cover.t -> offset:Logic.Cover.t -> Logic.Cover.t
(** One EXPAND pass: raise literals and output parts of each cube while the
    cube stays disjoint from the off-set; remove cubes covered by earlier
    expanded primes. Exposed for tests and ablations. *)

val irredundant : ?dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** Drop cubes covered by the remainder of the cover plus don't-cares. *)

val irredundant_minimal : ?dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** Minimum-cardinality subset of the cover's own cubes still covering the
    function — exact covering over (minterm, output) pairs, so limited to
    ≤ 12 inputs. The cardinality-optimal counterpart of the
    order-dependent {!irredundant}. *)

val reduce : ?dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t
(** One REDUCE pass: shrink each cube to the smallest cube still covering
    the part of the function only it covers. *)

val essentials : ?dc:Logic.Cover.t -> Logic.Cover.t -> Logic.Cover.t * Logic.Cover.t
(** [essentials ?dc f] splits [f] into (relatively essential, remainder):
    a cube is relatively essential when the other cubes ∪ [dc] do not
    cover it. Not part of {!minimize}: on an irredundant cover every cube
    is relatively essential. *)

val verify : ?dc:Logic.Cover.t -> original:Logic.Cover.t -> Logic.Cover.t -> bool
(** [verify ?dc ~original m] checks [m] implements the same incompletely
    specified function: [m ∪ dc ⊇ original] and every cube of [m] lies in
    [original ∪ dc]. *)
