(* Length-prefixed binary frames.

   Layout: 4-byte big-endian payload length, then the payload:

     magic 'C' | version | tag | body

   Integers are big-endian; strings are length-prefixed (u16 for tenant
   names, u32 for programs and error messages); bit matrices are
   u32 rows, u16 width, then rows * max(1, ceil(width/8)) bytes with
   bit i of a row in byte i/8 at position i mod 8 (LSB-first). Every
   row occupies at least one byte — even at width 0 — so a claimed row
   count is always backed by payload bytes and the decoder can bound it
   before allocating anything.

   The decoder works through a bounds-checked cursor whose every read
   can fail only by raising the private [Fail] exception, converted to a
   [result] at the [decode] boundary — so no input, however mangled, can
   escape as an exception or an out-of-bounds access. *)

let version = 1

let magic = 0x43 (* 'C' *)

let default_limit = 16 * 1024 * 1024

let header_bytes = 4

type error_code = Parse_failed | Arity_mismatch | Batch_too_large | Internal

(* Bit matrices stay in wire form on both sides of the codec: [m_data]
   is exactly the bytes that go on (or came off) the wire — rows of
   [max 1 (ceil (width/8))] bytes, LSB-first within each byte. Keeping
   them packed lets the server feed 8 row bits per byte straight into
   the bit-sliced evaluator without ever materializing bool arrays. *)
type matrix = { m_rows : int; m_width : int; m_data : string }

let matrix_stride width = max 1 ((width + 7) / 8)

let matrix_rows m = m.m_rows

let matrix_width m = m.m_width

let matrix_of_vectors rows =
  let n = Array.length rows in
  let width = if n = 0 then 0 else Array.length rows.(0) in
  let stride = matrix_stride width in
  let data = Bytes.make (n * stride) '\000' in
  Array.iteri
    (fun r row ->
      if Array.length row <> width then invalid_arg "Wire.matrix_of_vectors: ragged batch";
      let base = r * stride in
      Array.iteri
        (fun i bit ->
          if bit then begin
            let j = base + (i / 8) in
            Bytes.unsafe_set data j
              (Char.unsafe_chr (Char.code (Bytes.unsafe_get data j) lor (1 lsl (i mod 8))))
          end)
        row)
    rows;
  { m_rows = n; m_width = width; m_data = Bytes.unsafe_to_string data }

let matrix_init ~rows ~width f =
  if rows < 0 || width < 0 then invalid_arg "Wire.matrix_init";
  let stride = matrix_stride width in
  let data = Bytes.make (rows * stride) '\000' in
  for r = 0 to rows - 1 do
    let base = r * stride in
    for i = 0 to width - 1 do
      if f r i then begin
        let j = base + (i / 8) in
        Bytes.unsafe_set data j
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get data j) lor (1 lsl (i mod 8))))
      end
    done
  done;
  { m_rows = rows; m_width = width; m_data = Bytes.unsafe_to_string data }

let matrix_row m r =
  if r < 0 || r >= m.m_rows then invalid_arg "Wire.matrix_row";
  let base = r * matrix_stride m.m_width in
  Array.init m.m_width (fun i ->
      Char.code (String.unsafe_get m.m_data (base + (i / 8))) land (1 lsl (i mod 8)) <> 0)

let vectors_of_matrix m = Array.init m.m_rows (matrix_row m)

let matrix_sub m ~first ~len =
  if first < 0 || len < 0 || first + len > m.m_rows then invalid_arg "Wire.matrix_sub";
  let stride = matrix_stride m.m_width in
  { m_rows = len; m_width = m.m_width; m_data = String.sub m.m_data (first * stride) (len * stride) }

(* --- word-level gather and scatter ---------------------------------------

   Both directions move bits between wire rows (bit [c] of row [r] in
   byte [c/8] at position [c mod 8]) and lane words (bit [v] of word [c]
   is row [v]'s column [c]) eight rows by eight columns at a time: one
   byte from each of 8 consecutive rows forms an 8x8 bit matrix, and its
   transpose is one byte per column, each holding those 8 rows' bits.

   The matrix lives in two 32-bit halves so it fits a 63-bit int: [lo]
   holds rows 0-3 and [hi] rows 4-7, row [i] in byte [i mod 4], column
   [k] at bit [k] of its byte. [transpose8_half] transposes each 2x2 and
   then each 4x4 block inside one half (Hacker's Delight, section 7-3);
   [transpose8_lo] and [transpose8_hi] then swap the off-diagonal 4x4
   quadrants between the halves. No intermediate exceeds 36 bits. *)

let[@inline] transpose8_half x =
  let t = (x lxor (x lsr 7)) land 0x00AA00AA in
  let x = x lxor t lxor (t lsl 7) in
  let t = (x lxor (x lsr 14)) land 0x0000CCCC in
  x lxor t lxor (t lsl 14)

(* Arguments are the halves after [transpose8_half]. *)
let[@inline] transpose8_lo lo hi = lo land 0x0F0F0F0F lor ((hi lsl 4) land 0xF0F0F0F0)

let[@inline] transpose8_hi lo hi = (lo lsr 4) land 0x0F0F0F0F lor (hi land 0xF0F0F0F0)

let[@inline] byte_at s i = Char.code (String.unsafe_get s i)

(* Byte [base] of 4 rows [stride] apart, row [i] in byte [i]. *)
let[@inline] load4 s base stride =
  byte_at s base
  lor (byte_at s (base + stride) lsl 8)
  lor (byte_at s (base + (2 * stride)) lsl 16)
  lor (byte_at s (base + (3 * stride)) lsl 24)

(* The inverse of [load4]. *)
let[@inline] store4 b base stride x =
  Bytes.unsafe_set b base (Char.unsafe_chr (x land 0xff));
  Bytes.unsafe_set b (base + stride) (Char.unsafe_chr ((x lsr 8) land 0xff));
  Bytes.unsafe_set b (base + (2 * stride)) (Char.unsafe_chr ((x lsr 16) land 0xff));
  Bytes.unsafe_set b (base + (3 * stride)) (Char.unsafe_chr (x lsr 24))

(* Rows [row0 .. row0+3] of a group of [k < 8] rows, packed as [load4]
   packs them; rows at and past [k] read as zero, so the last group of a
   63-lane block never loads an 8th row into lane 63. *)
let[@inline] load_half s ~base ~stride ~k ~row0 =
  let x = ref 0 in
  for i = 0 to (if k - row0 < 4 then k - row0 else 4) - 1 do
    x := !x lor (byte_at s (base + ((row0 + i) * stride)) lsl (8 * i))
  done;
  !x

(* Lane-word accessors that treat columns at and above [width] as absent:
   the last byte column of a row may hold fewer than 8 columns. *)
let[@inline] store (words : int array) ~width c w = if c < width then Array.unsafe_set words c w

let[@inline] word (words : int array) ~width c = if c < width then Array.unsafe_get words c else 0

let lanes_per_block = Runtime.Cache.lanes_per_word

(* Transposed gather for [Runtime.Cache.eval_block]: bit v of word c is
   row (first+v)'s column c. For each byte column [j] the block's rows
   go through the 8x8 transpose in groups of 8 (7 full groups and one of
   7 for a 63-lane block); the 8 column words accumulate in locals and
   are stored once. *)
let matrix_block m ~first ~lanes =
  if lanes < 0 || lanes > lanes_per_block || first < 0 || first + lanes > m.m_rows then
    invalid_arg "Wire.matrix_block";
  let width = m.m_width in
  let stride = matrix_stride width in
  let data = m.m_data in
  let words = Array.make width 0 in
  for j = 0 to ((width + 7) / 8) - 1 do
    let w0 = ref 0 and w1 = ref 0 and w2 = ref 0 and w3 = ref 0 in
    let w4 = ref 0 and w5 = ref 0 and w6 = ref 0 and w7 = ref 0 in
    let v0 = ref 0 in
    while !v0 < lanes do
      let base = ((first + !v0) * stride) + j in
      let k = lanes - !v0 in
      let lo = if k >= 8 then load4 data base stride else load_half data ~base ~stride ~k ~row0:0 in
      let hi =
        if k >= 8 then load4 data (base + (4 * stride)) stride
        else load_half data ~base ~stride ~k ~row0:4
      in
      let lo = transpose8_half lo and hi = transpose8_half hi in
      let tlo = transpose8_lo lo hi and thi = transpose8_hi lo hi in
      let s = !v0 in
      w0 := !w0 lor ((tlo land 0xff) lsl s);
      w1 := !w1 lor (((tlo lsr 8) land 0xff) lsl s);
      w2 := !w2 lor (((tlo lsr 16) land 0xff) lsl s);
      w3 := !w3 lor ((tlo lsr 24) lsl s);
      w4 := !w4 lor ((thi land 0xff) lsl s);
      w5 := !w5 lor (((thi lsr 8) land 0xff) lsl s);
      w6 := !w6 lor (((thi lsr 16) land 0xff) lsl s);
      w7 := !w7 lor ((thi lsr 24) lsl s);
      v0 := s + 8
    done;
    let c0 = 8 * j in
    store words ~width c0 !w0;
    store words ~width (c0 + 1) !w1;
    store words ~width (c0 + 2) !w2;
    store words ~width (c0 + 3) !w3;
    store words ~width (c0 + 4) !w4;
    store words ~width (c0 + 5) !w5;
    store words ~width (c0 + 6) !w6;
    store words ~width (c0 + 7) !w7
  done;
  words

(* The inverse of [matrix_block], one block of lane words per 63 rows:
   for each byte column [j] and 8-lane group, the 8 output words' bytes
   for those lanes go through the 8x8 transpose and come out as the
   group's 8 row bytes, written straight into the reply matrix. Columns at and
   above [width] read as zero, so a row's padding bits stay zero. *)
let matrix_of_blocks ~rows ~width blocks =
  if rows < 0 || width < 0 then invalid_arg "Wire.matrix_of_blocks";
  if Array.length blocks <> (rows + lanes_per_block - 1) / lanes_per_block then
    invalid_arg "Wire.matrix_of_blocks: block count";
  Array.iter
    (fun words ->
      if Array.length words <> width then invalid_arg "Wire.matrix_of_blocks: block width")
    blocks;
  let stride = matrix_stride width in
  let data = Bytes.make (rows * stride) '\000' in
  Array.iteri
    (fun b words ->
      let first = b * lanes_per_block in
      let lanes = min lanes_per_block (rows - first) in
      for j = 0 to ((width + 7) / 8) - 1 do
        let c0 = 8 * j in
        let w0 = word words ~width c0 and w1 = word words ~width (c0 + 1) in
        let w2 = word words ~width (c0 + 2) and w3 = word words ~width (c0 + 3) in
        let w4 = word words ~width (c0 + 4) and w5 = word words ~width (c0 + 5) in
        let w6 = word words ~width (c0 + 6) and w7 = word words ~width (c0 + 7) in
        let v0 = ref 0 in
        while !v0 < lanes do
          let s = !v0 in
          let lo =
            (w0 lsr s) land 0xff
            lor (((w1 lsr s) land 0xff) lsl 8)
            lor (((w2 lsr s) land 0xff) lsl 16)
            lor (((w3 lsr s) land 0xff) lsl 24)
          and hi =
            (w4 lsr s) land 0xff
            lor (((w5 lsr s) land 0xff) lsl 8)
            lor (((w6 lsr s) land 0xff) lsl 16)
            lor (((w7 lsr s) land 0xff) lsl 24)
          in
          let lo = transpose8_half lo and hi = transpose8_half hi in
          let tlo = transpose8_lo lo hi and thi = transpose8_hi lo hi in
          let base = ((first + s) * stride) + j in
          if lanes - s >= 8 then begin
            store4 data base stride tlo;
            store4 data (base + (4 * stride)) stride thi
          end
          else
            for i = 0 to lanes - s - 1 do
              let row_byte = if i < 4 then tlo lsr (8 * i) else thi lsr (8 * (i - 4)) in
              Bytes.unsafe_set data (base + (i * stride)) (Char.unsafe_chr (row_byte land 0xff))
            done;
          v0 := s + 8
        done
      done)
    blocks;
  { m_rows = rows; m_width = width; m_data = Bytes.unsafe_to_string data }

type message =
  | Eval_request of { tenant : string; program : string; batch : matrix }
  | Classify_request of { tenant : string; model : string; batch : matrix }
  | Ping
  | Result_chunk of { first : int; outputs : matrix }
  | Eval_done of { total : int; cache_hit : bool; eval_ns : int64 }
  | Overloaded of { queued : int; inflight : int }
  | Error_response of { code : error_code; message : string }
  | Pong

type error =
  | Truncated of { expected : int; got : int }
  | Bad_magic of int
  | Unsupported_version of int
  | Bad_tag of int
  | Oversized of { length : int; limit : int }
  | Bad_payload of string

let error_to_string = function
  | Truncated { expected; got } -> Printf.sprintf "truncated frame: expected %d bytes, got %d" expected got
  | Bad_magic b -> Printf.sprintf "bad magic byte 0x%02x" b
  | Unsupported_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_tag t -> Printf.sprintf "unknown message tag 0x%02x" t
  | Oversized { length; limit } -> Printf.sprintf "oversized frame: %d bytes (limit %d)" length limit
  | Bad_payload msg -> Printf.sprintf "bad payload: %s" msg

let tag_name = function
  | Eval_request _ -> "eval_request"
  | Classify_request _ -> "classify_request"
  | Ping -> "ping"
  | Result_chunk _ -> "result_chunk"
  | Eval_done _ -> "eval_done"
  | Overloaded _ -> "overloaded"
  | Error_response _ -> "error_response"
  | Pong -> "pong"

(* --- tags ---------------------------------------------------------------- *)

let tag_of_message = function
  | Eval_request _ -> 0x01
  | Ping -> 0x02
  | Classify_request _ -> 0x03
  | Result_chunk _ -> 0x81
  | Eval_done _ -> 0x82
  | Overloaded _ -> 0x83
  | Error_response _ -> 0x84
  | Pong -> 0x85

let code_to_int = function Parse_failed -> 0 | Arity_mismatch -> 1 | Batch_too_large -> 2 | Internal -> 3

let code_of_int = function
  | 0 -> Some Parse_failed
  | 1 -> Some Arity_mismatch
  | 2 -> Some Batch_too_large
  | 3 -> Some Internal
  | _ -> None

(* --- encoding ------------------------------------------------------------ *)

let add_u8 b v = Buffer.add_uint8 b (v land 0xff)

let add_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Wire.encode: u16 field out of range";
  Buffer.add_uint16_be b v

let add_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.encode: u32 field out of range";
  Buffer.add_int32_be b (Int32.of_int v)

let add_str16 b s =
  add_u16 b (String.length s);
  Buffer.add_string b s

let add_str32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_matrix b m =
  add_u32 b m.m_rows;
  add_u16 b m.m_width;
  (* [m_data] is already the wire form; its length is an invariant of
     matrix construction ([rows * stride]). *)
  Buffer.add_string b m.m_data

let encode msg =
  let body = Buffer.create 64 in
  add_u8 body magic;
  add_u8 body version;
  add_u8 body (tag_of_message msg);
  (match msg with
  | Eval_request { tenant; program; batch } ->
    add_str16 body tenant;
    add_str32 body program;
    add_matrix body batch
  | Classify_request { tenant; model; batch } ->
    add_str16 body tenant;
    add_str16 body model;
    add_matrix body batch
  | Ping | Pong -> ()
  | Result_chunk { first; outputs } ->
    add_u32 body first;
    add_matrix body outputs
  | Eval_done { total; cache_hit; eval_ns } ->
    add_u32 body total;
    add_u8 body (if cache_hit then 1 else 0);
    Buffer.add_int64_be body eval_ns
  | Overloaded { queued; inflight } ->
    (* The overload response must be deliverable whatever queue bounds
       the server was configured with: saturate at the field width
       rather than raise and kill the session that most needs the
       backoff hint. *)
    add_u16 body (min queued 0xffff);
    add_u16 body (min inflight 0xffff)
  | Error_response { code; message } ->
    add_u8 body (code_to_int code);
    add_str32 body message);
  let frame = Buffer.create (Buffer.length body + header_bytes) in
  add_u32 frame (Buffer.length body);
  Buffer.add_buffer frame body;
  Buffer.contents frame

(* --- decoding ------------------------------------------------------------ *)

exception Fail of error

type cursor = { buf : string; limit : int; mutable pos : int }

let need c n =
  if c.pos + n > c.limit then raise (Fail (Truncated { expected = c.pos + n; got = c.limit }))

let u8 c =
  need c 1;
  let v = Char.code (String.unsafe_get c.buf c.pos) in
  c.pos <- c.pos + 1;
  v

let u16 c =
  let hi = u8 c in
  let lo = u8 c in
  (hi lsl 8) lor lo

let u32 c =
  let hi = u16 c in
  let lo = u16 c in
  (hi lsl 16) lor lo

let u64 c =
  need c 8;
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 c))
  done;
  !v

let str c len =
  need c len;
  let s = String.sub c.buf c.pos len in
  c.pos <- c.pos + len;
  s

let str16 c = str c (u16 c)

let str32 c = str c (u32 c)

let matrix c =
  let n = u32 c in
  let width = u16 c in
  let stride = max 1 ((width + 7) / 8) in
  (* The size claim must fit the remaining payload before any allocation
     is sized from it — a u32 row count in a 20-byte frame must die as
     Truncated, not as a gigabyte allocation. Rows are at least one byte
     each on the wire (see [add_matrix]), so this single check bounds
     the row count even for zero-width matrices. *)
  need c (n * stride);
  let data = String.sub c.buf c.pos (n * stride) in
  c.pos <- c.pos + (n * stride);
  { m_rows = n; m_width = width; m_data = data }

let decode_payload payload =
  let c = { buf = payload; limit = String.length payload; pos = 0 } in
  let m = u8 c in
  if m <> magic then raise (Fail (Bad_magic m));
  let v = u8 c in
  if v <> version then raise (Fail (Unsupported_version v));
  let tag = u8 c in
  let msg =
    match tag with
    | 0x01 ->
      let tenant = str16 c in
      let program = str32 c in
      let batch = matrix c in
      Eval_request { tenant; program; batch }
    | 0x02 -> Ping
    | 0x03 ->
      let tenant = str16 c in
      let model = str16 c in
      let batch = matrix c in
      Classify_request { tenant; model; batch }
    | 0x81 ->
      let first = u32 c in
      let outputs = matrix c in
      Result_chunk { first; outputs }
    | 0x82 ->
      let total = u32 c in
      let hit = u8 c in
      if hit > 1 then raise (Fail (Bad_payload "cache_hit flag not 0/1"));
      let eval_ns = u64 c in
      Eval_done { total; cache_hit = hit = 1; eval_ns }
    | 0x83 ->
      let queued = u16 c in
      let inflight = u16 c in
      Overloaded { queued; inflight }
    | 0x84 -> (
      match code_of_int (u8 c) with
      | None -> raise (Fail (Bad_payload "unknown error code"))
      | Some code ->
        let message = str32 c in
        Error_response { code; message })
    | 0x85 -> Pong
    | t -> raise (Fail (Bad_tag t))
  in
  if c.pos <> c.limit then raise (Fail (Bad_payload "trailing bytes after message body"));
  msg

let decode ?(limit = default_limit) s =
  match
    let c = { buf = s; limit = String.length s; pos = 0 } in
    let len = u32 c in
    if len > limit then raise (Fail (Oversized { length = len; limit }));
    let payload = str c len in
    (decode_payload payload, c.pos)
  with
  | v -> Ok v
  | exception Fail e -> Error e

(* --- channels ------------------------------------------------------------ *)

let write_message oc msg =
  output_string oc (encode msg);
  flush oc

(* [encode (Result_chunk ...)] for each [chunk]-row slice of [m], built
   in place: a 17-byte header (length prefix, magic, version, tag, first,
   rows, width) then the slice's rows straight out of [m_data]. *)
let write_result_chunks oc ~chunk m =
  if chunk < 1 then invalid_arg "Wire.write_result_chunks: chunk < 1";
  if m.m_width > 0xffff || m.m_rows > 0xffff_ffff then
    invalid_arg "Wire.write_result_chunks: matrix dimensions out of range";
  let stride = matrix_stride m.m_width in
  let hdr = Bytes.create 17 in
  let set_u32 pos v = Bytes.set_int32_be hdr pos (Int32.of_int v) in
  Bytes.set_uint8 hdr 4 magic;
  Bytes.set_uint8 hdr 5 version;
  Bytes.set_uint8 hdr 6 (tag_of_message (Result_chunk { first = 0; outputs = m }));
  Bytes.set_uint16_be hdr 15 m.m_width;
  let first = ref 0 in
  while !first < m.m_rows do
    let len = min chunk (m.m_rows - !first) in
    let payload = 13 + (len * stride) in
    if payload > 0xffff_ffff then invalid_arg "Wire.write_result_chunks: u32 field out of range";
    set_u32 0 payload;
    set_u32 7 !first;
    set_u32 11 len;
    output oc hdr 0 17;
    output_substring oc m.m_data (!first * stride) (len * stride);
    first := !first + len
  done

let really_read ic n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Some (Bytes.unsafe_to_string b)
    else
      match input ic b off (n - off) with
      | 0 -> if off = 0 then None else raise (Fail (Truncated { expected = n; got = off }))
      | k -> go (off + k)
  in
  go 0

let read_message ?(limit = default_limit) ic =
  match
    match really_read ic header_bytes with
    | None -> `Eof
    | Some hdr ->
      let len =
        (Char.code hdr.[0] lsl 24)
        lor (Char.code hdr.[1] lsl 16)
        lor (Char.code hdr.[2] lsl 8)
        lor Char.code hdr.[3]
      in
      if len > limit then `Error (Oversized { length = len; limit })
      else begin
        match really_read ic len with
        | None -> `Error (Truncated { expected = len; got = 0 })
        | Some payload -> `Msg (decode_payload payload)
      end
  with
  | r -> r
  | exception Fail e -> `Error e
  | exception End_of_file -> `Error (Truncated { expected = header_bytes; got = 0 })
