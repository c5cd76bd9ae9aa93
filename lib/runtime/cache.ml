(* Compiled-PLA cache.

   Mapping a cover onto a PLA (espresso-free path: cube -> plane modes)
   and building its switch-level netlist are pure functions of the
   programmed cover — the cube list plus the output-polarity
   configuration. The cache keys on an MD5 digest of that content and
   memoises three artefacts per entry:

     - the mapped [Pla.t];
     - a bit-sliced evaluator: per-row column-index lists that skip
       [Drop] crosspoints, driven by words in which lane v (bit
       position v) carries input vector v, so one AND/NOR sweep
       evaluates 63 vectors at once ([eval_block]); a single vector
       ([eval]) is a one-lane block;
     - the switch-level netlist, built lazily on first use.

   Hits, misses and evictions are counted. Eviction is
   least-recently-used at a fixed capacity, tracked by an intrusive
   doubly-linked list threaded through the entries (touch and evict are
   O(1); no full-table scan). All operations are guarded by a mutex so
   batch workers can share one cache.

   A second index maps the digest of a program's source text to the
   entry it compiled to, so a caller that already served that text once
   skips the parse and the cover key ([evaluator_of_text]). Each entry
   carries at most [aliases_per_entry] texts, and they leave with it. *)

module Cover = Logic.Cover
module Cube = Logic.Cube
module Pla = Cnfet.Pla
module Plane = Cnfet.Plane
module Gnor = Cnfet.Gnor

type key = string

let key_of_cover ?inverted_outputs cover =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "i%d;o%d;" (Cover.num_inputs cover) (Cover.num_outputs cover));
  Array.iter
    (fun c ->
      (* The packed input words are canonical for the input part (padding
         bits always zero), so digest them directly instead of rendering
         the cube to text. *)
      Array.iter (fun w -> Buffer.add_int64_le buf (Int64.of_int w)) (Cube.raw_words c);
      Util.Bitvec.iter_set
        (fun o -> Buffer.add_string buf (string_of_int o ^ ","))
        (Cube.outputs c);
      Buffer.add_char buf '\n')
    (Cover.to_array cover);
  Buffer.add_string buf "pol:";
  (match inverted_outputs with
  | None -> Buffer.add_char buf '.'
  | Some a -> Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) a);
  Digest.string (Buffer.contents buf)

(* --- compiled evaluator ------------------------------------------------ *)

(* A GNOR row is the NOR of its contributions: a [Pass] crosspoint
   contributes the input, an [Invert] one its complement, a [Drop] one
   nothing. Row i is therefore high iff no Pass input is 1 and no Invert
   input is 0. A row compiles to the column indices of its Pass and its
   Invert crosspoints, so every Drop is skipped; [eval_block] walks them
   with one word op per non-Drop crosspoint, each op covering 63
   vectors. *)
type srow = { s_pass : int array; s_invert : int array }

let lanes_per_word = 63

type block = { words : int array; lanes : int }

let compile_plane plane =
  Array.init (Plane.rows plane) (fun r ->
      let pass = ref [] and invert = ref [] in
      Array.iteri
        (fun c m ->
          match m with
          | Gnor.Pass -> pass := c :: !pass
          | Gnor.Invert -> invert := c :: !invert
          | Gnor.Drop -> ())
        (Plane.row_modes plane r);
      { s_pass = Array.of_list (List.rev !pass); s_invert = Array.of_list (List.rev !invert) })

(* One word per AND row and per OR row, parked on the compiled entry and
   claimed with an atomic exchange — concurrent evaluators on other
   domains simply allocate a fresh one, so reuse is race-free without a
   lock on the hot path. *)
type bscratch = { bproducts : int array; bsums : int array }

type compiled = {
  pla : Pla.t;
  and_rows : srow array;
  or_rows : srow array;
  inverted : bool array;
  crosspoints : int;  (* non-Drop crosspoints: word ops per block *)
  bscratch : bscratch option Atomic.t;
  hw : Pla.hw Lazy.t;
}

let compile_pla pla =
  let and_rows = compile_plane (Pla.and_plane pla) and or_rows = compile_plane (Pla.or_plane pla) in
  let count rows =
    Array.fold_left (fun acc s -> acc + Array.length s.s_pass + Array.length s.s_invert) 0 rows
  in
  {
    pla;
    and_rows;
    or_rows;
    inverted = Array.init (Pla.num_outputs pla) (Pla.output_inverted pla);
    crosspoints = count and_rows + count or_rows;
    bscratch = Atomic.make None;
    hw = lazy (Pla.build_hw pla);
  }

let pla c = c.pla

let crosspoints c = c.crosspoints

let hw c = Lazy.force c.hw

(* --- checksums ---------------------------------------------------------- *)

(* A cheap integer digest over everything [eval_block] reads: both row
   arrays and the output-polarity vector. SplitMix64's finalizer gives
   good avalanche, so any single change to an index list or a polarity
   changes the digest. Recomputed on every serve and compared with the
   value recorded at compile time — the cache's defence against entries
   rotting in place (injected by [Fault.Inject], or real memory
   corruption in a long-lived server). *)
let mix h x =
  let h = Int64.logxor h (Int64.of_int x) in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 30)) 0xbf58476d1ce4e5b9L in
  let h = Int64.mul (Int64.logxor h (Int64.shift_right_logical h 27)) 0x94d049bb133111ebL in
  Int64.logxor h (Int64.shift_right_logical h 31)

let checksum_of_compiled c =
  let h = ref 0x9e3779b97f4a7c15L in
  let row s =
    h := mix !h (Array.length s.s_pass);
    Array.iter (fun x -> h := mix !h x) s.s_pass;
    h := mix !h (Array.length s.s_invert);
    Array.iter (fun x -> h := mix !h x) s.s_invert
  in
  Array.iter row c.and_rows;
  h := mix !h (-1);
  Array.iter row c.or_rows;
  h := mix !h (-2);
  Array.iter (fun b -> h := mix !h (if b then 1 else 0)) c.inverted;
  Int64.to_int !h

(* Deterministic silent corruption for the chaos engine: swap Pass and
   Invert on the first row with a crosspoint (AND plane first), or, on a
   plane without crosspoints, flip the first output's polarity. The
   entry keeps evaluating but returns wrong bits, which is exactly the
   failure the checksum must catch before serving. Swapping keeps every
   index in range, so even a mistaken evaluation of the rotten entry
   stays memory-safe. *)
let corrupt_compiled c =
  let swap rows =
    match
      Array.find_index
        (fun s -> Array.length s.s_pass + Array.length s.s_invert > 0)
        rows
    with
    | Some i ->
      rows.(i) <- { s_pass = rows.(i).s_invert; s_invert = rows.(i).s_pass };
      true
    | None -> false
  in
  if not (swap c.and_rows || swap c.or_rows) && Array.length c.inverted > 0 then
    c.inverted.(0) <- not c.inverted.(0)

(* --- bit-sliced (transposed) evaluation ----------------------------------- *)

let lane_mask lanes = if lanes >= lanes_per_word then -1 else (1 lsl lanes) - 1

let transpose vectors ~first ~lanes =
  if lanes < 0 || lanes > lanes_per_word then invalid_arg "Cache.transpose: lanes";
  if first < 0 || first + lanes > Array.length vectors then
    invalid_arg "Cache.transpose: vector range";
  let n_in = if lanes = 0 then 0 else Array.length vectors.(first) in
  let words = Array.make n_in 0 in
  for v = 0 to lanes - 1 do
    let row = vectors.(first + v) in
    if Array.length row <> n_in then invalid_arg "Cache.transpose: ragged batch";
    (* Branchless: a bool is already 0/1, so shift it into the lane
       instead of testing it — random input bits would mispredict half
       the time. *)
    for c = 0 to n_in - 1 do
      Array.unsafe_set words c
        (Array.unsafe_get words c lor (Bool.to_int (Array.unsafe_get row c) lsl v))
    done
  done;
  { words; lanes }

let untranspose words ~lanes =
  if lanes < 0 || lanes > lanes_per_word then invalid_arg "Cache.untranspose: lanes";
  let n = Array.length words in
  Array.init lanes (fun v ->
      let bit = 1 lsl v in
      Array.init n (fun c -> words.(c) land bit <> 0))

(* One plane sweep: for each row, AND together the complements of its
   Pass columns and its Invert columns — the GNOR test, 63 vectors per
   word op. Bits above [lanes] carry garbage mid-pipeline; the output
   stage masks them off. *)
(* Column indices are compile-derived and always in range for the plane
   they index (every corruption path preserves that invariant), so the
   word reads skip the bounds check — it is the hot loop. *)
let eval_srows_into srows words out =
  for r = 0 to Array.length srows - 1 do
    let s = Array.unsafe_get srows r in
    let acc = ref (-1) in
    let pass = s.s_pass in
    for i = 0 to Array.length pass - 1 do
      acc := !acc land lnot (Array.unsafe_get words (Array.unsafe_get pass i))
    done;
    let invert = s.s_invert in
    for i = 0 to Array.length invert - 1 do
      acc := !acc land Array.unsafe_get words (Array.unsafe_get invert i)
    done;
    Array.unsafe_set out r !acc
  done

let alloc_bscratch c =
  {
    bproducts = Array.make (Array.length c.and_rows) 0;
    bsums = Array.make (Array.length c.or_rows) 0;
  }

let eval_block c { words; lanes } =
  let n_in = Pla.num_inputs c.pla in
  if lanes < 0 || lanes > lanes_per_word then invalid_arg "Cache.eval_block: lanes";
  if Array.length words <> n_in then invalid_arg "Cache.eval_block: input width";
  let cols = Plane.cols (Pla.and_plane c.pla) in
  let words =
    (* Degenerate shapes pad the AND plane to at least one column; a
       padded column reads as constant-0 lanes. *)
    if cols = n_in then words else Array.append words (Array.make (cols - n_in) 0)
  in
  let s =
    match Atomic.exchange c.bscratch None with Some s -> s | None -> alloc_bscratch c
  in
  eval_srows_into c.and_rows words s.bproducts;
  eval_srows_into c.or_rows s.bproducts s.bsums;
  let m = lane_mask lanes in
  let sums = s.bsums in
  let result =
    Array.init (Array.length c.inverted) (fun o ->
        (if c.inverted.(o) then lnot sums.(o) else sums.(o)) land m)
  in
  Atomic.set c.bscratch (Some s);
  result

(* A single vector is a one-lane block. *)
let eval c inputs =
  if Array.length inputs <> Pla.num_inputs c.pla then invalid_arg "Cache.eval";
  Array.map
    (fun w -> w land 1 <> 0)
    (eval_block c { words = Array.map Bool.to_int inputs; lanes = 1 })

(* --- the cache proper --------------------------------------------------- *)

(* Entries carry their own LRU links: [prev] points toward the head
   (most recently used), [next] toward the tail (the eviction victim).
   Touch and evict are O(1) pointer splices under the cache lock. An
   entry also lists the text digests that point at it, newest first, so
   removing the entry removes them from the text index too. *)
type entry = {
  ekey : key;
  compiled : compiled;
  check : int;
  mutable aliases : string list;
  mutable prev : entry option;
  mutable next : entry option;
}

exception Corrupt_entry of { key : key }

let () =
  Printexc.register_printer (function
    | Corrupt_entry { key } ->
      Some (Printf.sprintf "Cache.Corrupt_entry (key %s)" (Digest.to_hex key))
    | _ -> None)

let aliases_per_entry = 2

type t = {
  lock : Mutex.t;
  table : (key, entry) Hashtbl.t;
  texts : (string, entry * int) Hashtbl.t;  (* text digest -> entry, n_in *)
  capacity : int;
  mutable head : entry option;  (* most recently used *)
  mutable tail : entry option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable corruptions : int;
}

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Cache.create: capacity";
  {
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    texts = Hashtbl.create 16;
    capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    corruptions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let remove_entry t e =
  unlink t e;
  Hashtbl.remove t.table e.ekey;
  List.iter (Hashtbl.remove t.texts) e.aliases;
  e.aliases <- []

let evict_lru t =
  match t.tail with
  | Some victim ->
    remove_entry t victim;
    t.evictions <- t.evictions + 1
  | None -> ()

(* Point [text] at [e], dropping it from whichever entry held it before
   and dropping [e]'s oldest text past the per-entry bound. *)
let add_alias t e (text, n_in) =
  if not (List.mem text e.aliases) then begin
    (match Hashtbl.find_opt t.texts text with
    | Some (old, _) -> old.aliases <- List.filter (fun a -> a <> text) old.aliases
    | None -> ());
    let aliases = text :: e.aliases in
    List.iteri (fun i a -> if i >= aliases_per_entry then Hashtbl.remove t.texts a) aliases;
    e.aliases <- List.filteri (fun i _ -> i < aliases_per_entry) aliases;
    Hashtbl.replace t.texts text (e, n_in)
  end

(* A rotten entry is counted and evicted, so a retry recompiles. *)
let reject_rotten t e =
  t.corruptions <- t.corruptions + 1;
  remove_entry t e;
  if Obs.Span.enabled () then Obs.Span.instant "cache.corruption_detected";
  raise (Corrupt_entry { key = e.ekey })

(* Serve-time integrity check: never hand out an entry whose content no
   longer matches the digest recorded at compile time. *)
let serve_hit t e =
  t.hits <- t.hits + 1;
  unlink t e;
  push_front t e;
  if checksum_of_compiled e.compiled <> e.check then reject_rotten t e;
  e.compiled

(* Returns the compiled entry plus whether it was already cached, so
   callers that care (the serve layer reports cache_hit per request)
   get the answer for this call alone instead of racing on the shared
   [hits] counter. [alias] is attached to the entry under the same lock,
   so it can never point at an entry already gone. *)
let find_or_compile ?alias t key build =
  locked t (fun () ->
      let e, hit =
        match Hashtbl.find_opt t.table key with
        | Some e ->
          ignore (serve_hit t e : compiled);
          (e, true)
        | None ->
          t.misses <- t.misses + 1;
          let compiled = Obs.Span.with_ "cache.compile" build in
          let check = checksum_of_compiled compiled in
          if Hashtbl.length t.table >= t.capacity then evict_lru t;
          let e = { ekey = key; compiled; check; aliases = []; prev = None; next = None } in
          Hashtbl.replace t.table key e;
          push_front t e;
          (* Chaos hook: a freshly stored entry may rot immediately. The
             just-built value is the stored value, so verify before
             returning it — the caller must never evaluate through a
             corrupt entry. *)
          (match Fault.Inject.tap (Fault.Inject.Cache_store { key }) with
          | Fault.Inject.Corrupt -> corrupt_compiled compiled
          | _ -> ());
          if checksum_of_compiled compiled <> check then reject_rotten t e;
          (e, false)
      in
      Option.iter (add_alias t e) alias;
      (e.compiled, hit))

let cover_hit ?alias t ?inverted_outputs cover =
  let key = key_of_cover ?inverted_outputs cover in
  find_or_compile ?alias t key (fun () -> compile_pla (Pla.of_cover ?inverted_outputs cover))

let compile_hit t ?inverted_outputs cover = cover_hit t ?inverted_outputs cover

let compile t ?inverted_outputs cover = fst (compile_hit t ?inverted_outputs cover)

let pla_hit ?alias t pla_v =
  (* Key on the planes' programmed content rather than a source cover. *)
  let buf = Buffer.create 256 in
  let add_plane p =
    Buffer.add_string buf (Printf.sprintf "%dx%d:" (Plane.rows p) (Plane.cols p));
    Plane.iter
      (fun _ _ m ->
        Buffer.add_char buf
          (match m with Gnor.Pass -> 'p' | Gnor.Invert -> 'i' | Gnor.Drop -> '.'))
      p
  in
  add_plane (Pla.and_plane pla_v);
  Buffer.add_char buf '|';
  add_plane (Pla.or_plane pla_v);
  Buffer.add_string buf "pol:";
  for o = 0 to Pla.num_outputs pla_v - 1 do
    Buffer.add_char buf (if Pla.output_inverted pla_v o then '1' else '0')
  done;
  let key = Digest.string (Buffer.contents buf) in
  find_or_compile ?alias t key (fun () -> compile_pla pla_v)

let compile_of_pla_hit t pla_v = pla_hit t pla_v

let compile_of_pla t pla_v = fst (compile_of_pla_hit t pla_v)

(* --- the failure policy -------------------------------------------------- *)

type engine = Compiled of compiled | Uncompiled of Pla.t

(* Stateless, so the outcome for a cover depends only on what the cache
   holds and on each key's own [Cache_store] decision, never on how
   concurrent callers interleave. A rotten entry ([Corrupt_entry]
   self-evicts) gets one recompile; if the cover key rots twice in a
   row, the mapped PLA is compiled under its plane-content key (a
   distinct entry) before giving up and evaluating uncompiled. [after_rot]
   enters the chain at the recompile: the text index already found one
   rotten entry. Whatever entry serves takes [alias]. *)
let chain ?alias ~after_rot t cover =
  let recompile () =
    match cover_hit ?alias t cover with
    | compiled, hit -> (Compiled compiled, hit)
    | exception Corrupt_entry _ -> (
      let pla_v = Pla.of_cover cover in
      match pla_hit ?alias t pla_v with
      | compiled, hit -> (Compiled compiled, hit)
      | exception Corrupt_entry _ -> (Uncompiled pla_v, false))
  in
  if after_rot then recompile ()
  else
    match cover_hit ?alias t cover with
    | compiled, hit -> (Compiled compiled, hit)
    | exception Corrupt_entry _ -> recompile ()

let evaluator t cover = chain ~after_rot:false t cover

(* Step zero: the text index, under the lock, with the arity check
   before the hit is counted. *)
let evaluator_of_text t ~text ~check_arity ~parse =
  let digest = Digest.string text in
  let found =
    locked t (fun () ->
        match Hashtbl.find_opt t.texts digest with
        | None -> `Miss
        | Some (e, n_in) -> (
          check_arity n_in;
          match serve_hit t e with c -> `Hit c | exception Corrupt_entry _ -> `Rotten))
  in
  match found with
  | `Hit c -> (Compiled c, true)
  | (`Miss | `Rotten) as found ->
    let cover = parse () in
    chain
      ~alias:(digest, Cover.num_inputs cover)
      ~after_rot:(found = `Rotten) t cover

let text_cached t text = locked t (fun () -> Hashtbl.mem t.texts (Digest.string text))

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let evictions t = locked t (fun () -> t.evictions)
let corruptions t = locked t (fun () -> t.corruptions)
let size t = locked t (fun () -> Hashtbl.length t.table)
let text_index_size t = locked t (fun () -> Hashtbl.length t.texts)

let corrupt_for_test = corrupt_compiled

let hit_rate t =
  locked t (fun () ->
      let total = t.hits + t.misses in
      if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total)

let export_metrics t m =
  Metrics.register_gauge m "cache.entries" (fun () -> float_of_int (size t));
  Metrics.register_gauge m "cache.hits" (fun () -> float_of_int (hits t));
  Metrics.register_gauge m "cache.misses" (fun () -> float_of_int (misses t));
  Metrics.register_gauge m "cache.evictions" (fun () -> float_of_int (evictions t));
  Metrics.register_gauge m "cache.corruptions_detected" (fun () -> float_of_int (corruptions t));
  Metrics.register_gauge m "cache.hit_rate" (fun () -> hit_rate t)
