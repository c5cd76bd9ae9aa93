type literal = Zero | One | Dc

(* Word-parallel bit-packed positional-cube representation.

   The input part packs 2 bits per literal into 63-bit native ints, 31
   literals per word (62 payload bits): bit [2k] of a word says "position
   matches input value 0", bit [2k+1] says "matches input value 1". A
   literal is therefore the 2-bit set 01 (Zero), 10 (One) or 11 (Dc); 00
   (the empty set) never appears in a well-formed cube, which is what lets
   intersection emptiness, containment and distance collapse to a handful
   of AND/OR/popcount operations per 31 positions. Padding bits above the
   last valid field of the final word are kept at 0 by every constructor,
   so whole-word AND/OR/XOR need no end-of-cube masking. *)

let lit_zero = 1
let lit_one = 2
let lit_dc = 3

let fields_per_word = 31

let int_of_literal = function Zero -> lit_zero | One -> lit_one | Dc -> lit_dc

let literal_of_int = function
  | 1 -> Zero
  | 2 -> One
  | 3 -> Dc
  | n -> invalid_arg (Printf.sprintf "Cube.literal_of_int: %d" n)

type t = { n_in : int; ins : int array; outs : Util.Bitvec.t }

let words_for n = (n + fields_per_word - 1) / fields_per_word

(* dc_masks.(k): the k lowest 2-bit fields all set to 11 (the all-Dc word
   for k valid fields, and also the padding mask). low_masks.(k): bit 0 of
   each of those fields (the 01…01 pattern popcounts work against). For
   k = 31 the 62-bit all-ones value is exactly [max_int]. *)
let dc_masks =
  Array.init (fields_per_word + 1) (fun k ->
      if k = fields_per_word then max_int else (1 lsl (2 * k)) - 1)

let low_masks = Array.map (fun m -> m / 3) dc_masks

(* Number of valid 2-bit fields in word [k] of an [n]-input cube. *)
let fields_in n k =
  let w = words_for n in
  if k = w - 1 then n - (k * fields_per_word) else fields_per_word

(* SWAR popcount for 62-bit payloads. The first mask only needs to cover
   bits 0..60 because [x lsr 1] of a 62-bit value has no higher bit set. *)
let m1 = 0x1555555555555555
let m2 = 0x3333333333333333
let m4 = 0x0F0F0F0F0F0F0F0F
let h01 = 0x0101010101010101

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

let all_dc_ins n =
  let w = words_for n in
  Array.init w (fun k -> dc_masks.(fields_in n k))

let make ~n_in ~n_out =
  { n_in; ins = all_dc_ins n_in; outs = Util.Bitvec.create n_out }

let universe ~n_in ~n_out =
  { n_in; ins = all_dc_ins n_in; outs = Util.Bitvec.create_full n_out }

let of_literals lits ~outs =
  let n = List.length lits in
  let ins = Array.make (words_for n) 0 in
  List.iteri
    (fun i l ->
      let k = i / fields_per_word and j = i mod fields_per_word in
      ins.(k) <- ins.(k) lor (int_of_literal l lsl (2 * j)))
    lits;
  { n_in = n; ins; outs }

let num_inputs t = t.n_in

let num_outputs t = Util.Bitvec.length t.outs

let raw_get t i =
  (t.ins.(i / fields_per_word) lsr (2 * (i mod fields_per_word))) land 3

let raw_set t i v =
  assert (v >= 1 && v <= 3);
  let ins = Array.copy t.ins in
  let k = i / fields_per_word and j = i mod fields_per_word in
  ins.(k) <- (ins.(k) land lnot (3 lsl (2 * j))) lor (v lsl (2 * j));
  { t with ins }

let get t i = literal_of_int (raw_get t i)

let set t i l = raw_set t i (int_of_literal l)

let outputs t = t.outs

let with_outputs t outs = { t with outs }

let raw_words t = Array.copy t.ins

let equal a b =
  a.n_in = b.n_in
  && (let rec go k = k < 0 || (a.ins.(k) = b.ins.(k) && go (k - 1)) in
      go (Array.length a.ins - 1))
  && Util.Bitvec.equal a.outs b.outs

(* Positional-lexicographic order with literal values 1 < 2 < 3 — the same
   total order the old byte-per-literal [Bytes.compare] induced, which the
   deterministic espresso pipeline depends on. The first differing word is
   decided by its lowest differing 2-bit field. *)
let compare a b =
  if a.n_in <> b.n_in then Stdlib.compare a.n_in b.n_in
  else begin
    let w = Array.length a.ins in
    let rec go k =
      if k >= w then Util.Bitvec.compare a.outs b.outs
      else
        let x = a.ins.(k) and y = b.ins.(k) in
        if x = y then go (k + 1)
        else begin
          let d = x lxor y in
          let j = ref 0 in
          while (d lsr (2 * !j)) land 3 = 0 do incr j done;
          Stdlib.compare ((x lsr (2 * !j)) land 3) ((y lsr (2 * !j)) land 3)
        end
    in
    go 0
  end

let hash t = Hashtbl.hash (t.n_in, t.ins, Util.Bitvec.hash t.outs)

let contains a b =
  assert (a.n_in = b.n_in);
  let w = Array.length a.ins in
  let rec go k = k >= w || (b.ins.(k) land lnot a.ins.(k) = 0 && go (k + 1)) in
  go 0 && Util.Bitvec.subset b.outs a.outs

(* A word of an intersection is valid iff no 2-bit field went to 00:
   fold each field's two bits onto its low bit and compare with the
   all-fields-present pattern. *)

let input_universe t =
  let w = Array.length t.ins in
  let rec go k = k >= w || (t.ins.(k) = dc_masks.(fields_in t.n_in k) && go (k + 1)) in
  go 0

let inputs_meet a b =
  assert (a.n_in = b.n_in);
  let w = Array.length a.ins in
  let rec go k =
    if k >= w then true
    else
      let v = a.ins.(k) land b.ins.(k) in
      let lm = low_masks.(fields_in a.n_in k) in
      (v lor (v lsr 1)) land lm = lm && go (k + 1)
  in
  go 0

let intersects a b = inputs_meet a b && not (Util.Bitvec.disjoint a.outs b.outs)

let intersect a b =
  assert (a.n_in = b.n_in);
  let w = Array.length a.ins in
  let ins = Array.make w 0 in
  let rec go k =
    if k >= w then true
    else
      let v = a.ins.(k) land b.ins.(k) in
      let lm = low_masks.(fields_in a.n_in k) in
      if (v lor (v lsr 1)) land lm <> lm then false
      else begin
        ins.(k) <- v;
        go (k + 1)
      end
  in
  if not (go 0) then None
  else
    let outs = Util.Bitvec.inter a.outs b.outs in
    if Util.Bitvec.is_empty outs then None else Some { a with ins; outs }

let distance a b =
  assert (a.n_in = b.n_in);
  let w = Array.length a.ins in
  let d = ref 0 in
  for k = 0 to w - 1 do
    let v = a.ins.(k) land b.ins.(k) in
    let lm = low_masks.(fields_in a.n_in k) in
    d := !d + popcount (lm lxor ((v lor (v lsr 1)) land lm))
  done;
  if Util.Bitvec.disjoint a.outs b.outs then incr d;
  !d

(* Gather the low bit of each 2-bit field of a word (bit 2k) into bit k. *)
let compress_fields x =
  let x = x land 0x1555555555555555 in
  let x = (x lor (x lsr 1)) land 0x3333333333333333 in
  let x = (x lor (x lsr 2)) land 0x0F0F0F0F0F0F0F0F in
  let x = (x lor (x lsr 4)) land 0x00FF00FF00FF00FF in
  let x = (x lor (x lsr 8)) land 0x0000FFFF0000FFFF in
  (x lor (x lsr 16)) land 0xFFFFFFFF

let max_mask_inputs = 2 * fields_per_word

let conflict_mask a b =
  assert (a.n_in = b.n_in);
  if a.n_in > max_mask_inputs then invalid_arg "Cube.conflict_mask: too many inputs";
  let m = ref 0 in
  for k = Array.length a.ins - 1 downto 0 do
    let v = a.ins.(k) land b.ins.(k) in
    let lm = low_masks.(fields_in a.n_in k) in
    m := (!m lsl fields_per_word) lor compress_fields (lm lxor ((v lor (v lsr 1)) land lm))
  done;
  !m

let supercube t = t

let supercube2 a b =
  assert (a.n_in = b.n_in);
  let ins = Array.mapi (fun k x -> x lor b.ins.(k)) a.ins in
  { a with ins; outs = Util.Bitvec.union a.outs b.outs }

let cofactor_ins a p =
  Array.mapi (fun k x -> x lor (lnot p.ins.(k) land dc_masks.(fields_in a.n_in k))) a.ins

let cofactor a ~by:p =
  assert (a.n_in = p.n_in);
  if not (intersects a p) then None
  else
    let outs = Util.Bitvec.union a.outs (Util.Bitvec.complement p.outs) in
    Some { a with ins = cofactor_ins a p; outs }

let cofactor_inputs a ~by:p ~outs =
  if inputs_meet a p then Some { a with ins = cofactor_ins a p; outs } else None

(* Cofactor by the universe cube with field [i] set to [l]: the cube meets
   it iff field [i] meets [l] and the output part is non-empty, and then
   field [i] becomes [a_i ∪ ¬l = Dc] while every other field and the
   outputs (∪ ¬full = ∪ ∅) are unchanged. *)
let cofactor_var a i l =
  let v =
    match l with
    | Zero -> lit_zero
    | One -> lit_one
    | Dc -> invalid_arg "Cube.cofactor_var: Dc"
  in
  let k = i / fields_per_word and sh = 2 * (i mod fields_per_word) in
  if (a.ins.(k) lsr sh) land v = 0 || Util.Bitvec.is_empty a.outs then None
  else begin
    let ins = Array.copy a.ins in
    ins.(k) <- ins.(k) lor (lit_dc lsl sh);
    Some { a with ins }
  end

let literal_count t =
  let w = Array.length t.ins in
  let dc = ref 0 in
  for k = 0 to w - 1 do
    let v = t.ins.(k) in
    dc := !dc + popcount (v land (v lsr 1) land low_masks.(fields_in t.n_in k))
  done;
  t.n_in - !dc

let pack_minterm minterm =
  let n = Array.length minterm in
  let ins = Array.make (words_for n) 0 in
  for i = n - 1 downto 0 do
    let k = i / fields_per_word and j = i mod fields_per_word in
    ins.(k) <- ins.(k) lor ((if minterm.(i) then lit_one else lit_zero) lsl (2 * j))
  done;
  ins

let matches_packed t packed =
  assert (Array.length packed = Array.length t.ins);
  let w = Array.length t.ins in
  let rec go k = k >= w || (t.ins.(k) land packed.(k) = packed.(k) && go (k + 1)) in
  go 0

let matches t minterm =
  assert (Array.length minterm = t.n_in);
  matches_packed t (pack_minterm minterm)

let to_string t =
  let n_out = num_outputs t in
  let buf = Buffer.create (t.n_in + n_out + 1) in
  for i = 0 to t.n_in - 1 do
    Buffer.add_char buf
      (match raw_get t i with 1 -> '0' | 2 -> '1' | 3 -> '-' | _ -> '?')
  done;
  if n_out > 0 then begin
    Buffer.add_char buf ' ';
    for o = 0 to n_out - 1 do
      Buffer.add_char buf (if Util.Bitvec.get t.outs o then '1' else '0')
    done
  end;
  Buffer.contents buf

let pp fmt t = Format.pp_print_string fmt (to_string t)
