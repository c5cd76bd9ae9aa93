(** Compiled-PLA cache with content-hash keys and hit/miss accounting.

    Mapping a cover onto a PLA and building its switch-level netlist are
    pure functions of the programmed content — the cube list plus the
    output-polarity configuration — so they are memoised under an MD5
    digest of exactly that content. Each entry holds the mapped
    {!Cnfet.Pla.t}, one compiled evaluator (per-row column-index lists
    that skip [Drop] crosspoints, run bit-sliced by {!eval_block} over
    63 input vectors per native int; {!eval} is a one-lane block;
    bit-identical to [Pla.eval]) and the lazily-built switch-level
    netlist. Eviction is LRU at a
    fixed capacity, tracked by an intrusive doubly-linked list (touch
    and evict are O(1)). A text index maps program source texts to the
    entries they compiled to ({!evaluator_of_text}), so a text seen
    before skips the parse and the cover key. Thread-safe. *)

type t

type key = string
(** MD5 digest of the programmed content. *)

exception Corrupt_entry of { key : key }
(** Raised by {!compile} / {!compile_of_pla} when the entry about to be
    served (or just stored, under {!Fault.Inject} chaos) no longer
    matches the integrity checksum recorded at compile time. The rotten
    entry is evicted before raising, so a plain retry recompiles from
    source; {!evaluator} is the policy built on that. *)

val key_of_cover : ?inverted_outputs:bool array -> Logic.Cover.t -> key
(** The cache key {!compile} uses: digest of [n_in], [n_out], the cube
    list in order, and the polarity configuration. *)

val create : ?capacity:int -> unit -> t
(** LRU capacity defaults to 256 entries. *)

(** {2 Compiled entries} *)

type compiled

val compile : t -> ?inverted_outputs:bool array -> Logic.Cover.t -> compiled
(** Find-or-build the compiled PLA for this programmed cover.
    [inverted_outputs] follows {!Cnfet.Pla.of_cover}'s convention and is
    part of the key. *)

val compile_hit : t -> ?inverted_outputs:bool array -> Logic.Cover.t -> compiled * bool
(** {!compile}, additionally reporting whether the entry was already
    cached ([true] = hit). The flag describes this call alone —
    inferring it by diffing the shared {!hits} counter races with
    concurrent lookups on the same cache. *)

val compile_of_pla : t -> Cnfet.Pla.t -> compiled
(** Same, keyed on an already-mapped PLA's plane contents (used for
    repaired / hand-built PLAs that have no source cover). *)

val compile_of_pla_hit : t -> Cnfet.Pla.t -> compiled * bool
(** {!compile_of_pla} with the same per-call hit flag as
    {!compile_hit}. *)

val pla : compiled -> Cnfet.Pla.t

val crosspoints : compiled -> int
(** Non-[Drop] crosspoints over both planes: the word ops one
    {!eval_block} call costs, whatever its lane count. *)

(** {2 Failure policy} *)

type engine =
  | Compiled of compiled
  | Uncompiled of Cnfet.Pla.t
      (** the mapped PLA, to evaluate directly with [Pla.eval] *)

val evaluator : t -> Logic.Cover.t -> engine * bool
(** The one recovery policy for a rotting cache, used by the serve
    daemon and the chaos loop alike. {!compile_hit}; on
    {!Corrupt_entry}, one recompile; if that rots too, {!compile_of_pla_hit}
    on the mapped PLA (a distinct key); if that rots as well,
    [Uncompiled]. Stateless: which engine comes back, and how many
    corruptions the call records, depend only on the cache's contents
    and each key's own {!Fault.Inject} [Cache_store] decision, never on
    how concurrent callers interleave. The flag is the per-call hit
    flag of the lookup that succeeded ([false] for [Uncompiled]).
    Results are bit-identical on either engine. *)

(** {2 Text index}

    A request that names its program by source text (the serve daemon's
    [Eval_request]) would otherwise parse the text and digest the cover
    on every call, though the answer never changes. The cache keeps a
    second index from [Digest.string text] to the entry that text
    compiled to, with the program's input count for the arity check.
    Each entry carries at most {!aliases_per_entry} texts; they leave
    the index when the entry leaves the cache (LRU eviction or rot), so
    the index never holds more than [aliases_per_entry × size] texts and
    never outlives an entry. Two texts of one cover still share one
    entry through the cover key. The index holds digests, not covers or
    texts. *)

val aliases_per_entry : int
(** 2: texts one entry answers for; a third evicts the oldest. *)

val evaluator_of_text :
  t ->
  text:string ->
  check_arity:(int -> unit) ->
  parse:(unit -> Logic.Cover.t) ->
  engine * bool
(** {!evaluator} with the text index as step zero. On an index hit,
    [check_arity n_in] runs first (it may raise to reject the request,
    and then nothing is counted or touched); then the hit is counted,
    the entry touched and its checksum verified, and neither [parse]
    nor {!key_of_cover} runs. On a miss, [parse ()] supplies the cover
    (it runs its own arity check; its exceptions pass through and
    nothing enters the index) and {!evaluator}'s chain runs. A rotten
    entry found through the index is evicted and counts as the chain's
    first rot: the request parses and continues at the one recompile,
    then the plane-content key, then [Uncompiled] — never more compiles
    than {!evaluator}. Whichever entry serves the request takes the text
    as an alias. [check_arity] runs under the cache lock, so it must
    not touch the cache. *)

val text_cached : t -> string -> bool
(** Whether the index holds this text now (a trace annotation; a
    concurrent request may change the answer at once). *)

val eval : compiled -> bool array -> bool array
(** Compiled functional evaluation of one vector, run as a one-lane
    {!eval_block}; bit-identical to [Pla.eval] on the underlying PLA.
    @raise Invalid_argument if [inputs] is not the PLA's input width. *)

val hw : compiled -> Cnfet.Pla.hw
(** The switch-level realization, built on first use and memoised. *)

(** {2 Bit-sliced (transposed) evaluation}

    The transposed layout: one native [int] per input column, in which
    bit (lane) [v] holds that column's value for vector [v] of the
    block. A block carries up to {!lanes_per_word} = 63 vectors — the
    payload width of an OCaml tagged int — so one AND/NOR word op per
    non-[Drop] crosspoint evaluates all 63 at once. *)

val lanes_per_word : int
(** 63: vectors per block word. *)

type block = { words : int array; lanes : int }
(** [words.(c)] packs input column [c] across [lanes] vectors; bit [v]
    of [words.(c)] is vector [v]'s value. [0 <= lanes <= 63]. Bits at
    and above [lanes] must be zero. *)

val transpose : bool array array -> first:int -> lanes:int -> block
(** [transpose vectors ~first ~lanes] packs
    [vectors.(first .. first+lanes-1)] into a block. All selected
    vectors must share [vectors.(first)]'s width.
    @raise Invalid_argument on a ragged batch or out-of-range slice. *)

val untranspose : int array -> lanes:int -> bool array array
(** Inverse fan-in: unpack per-column (or per-output) words back into
    [lanes] row vectors, in lane order — bit-identical to evaluating
    the vectors one by one. *)

val eval_block : compiled -> block -> int array
(** Evaluate 63-at-a-time: returns one word per output, lane [v] of
    word [o] being output [o] of vector [v] — bit-identical to
    [Pla.eval] on each lane, at any input width. Bits at and above
    [block.lanes] are zero in the result. Plane scratch words are
    reused across calls on the same compiled entry (claimed atomically,
    so concurrent evaluators on other domains stay correct).
    @raise Invalid_argument if [Array.length block.words] differs from
    the compiled PLA's input count or [block.lanes] is out of range. *)

(** {2 Accounting} *)

val hits : t -> int

val misses : t -> int

val evictions : t -> int

val corruptions : t -> int
(** Checksum mismatches detected (and evicted) so far. *)

val size : t -> int

val text_index_size : t -> int
(** Texts in the index; at most [aliases_per_entry × size]. *)

val corrupt_for_test : compiled -> unit
(** Deterministically rot a compiled entry in place {e without}
    updating its stored checksum: swaps Pass and Invert on the first row
    with a crosspoint, or flips the first output's polarity when no row
    has one. The next serve of that entry must raise {!Corrupt_entry}.
    Chaos/test hook; never call it in production paths. *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val export_metrics : t -> Metrics.t -> unit
(** Register [cache.*] callback gauges on a registry. *)
