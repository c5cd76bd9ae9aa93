(** Versioned binary wire protocol for the evaluation service.

    Every message travels as one length-prefixed frame: a 4-byte
    big-endian payload length, then the payload — magic byte, protocol
    version, message tag, body. Input batches and result batches are
    packed bit matrices (one row per vector, LSB-first within each
    byte), so a 16-input vector costs 2 bytes on the wire, not 16; a
    row always occupies at least one byte, so a claimed row count can
    never outrun the bytes that back it.

    The decoder is {e total}: any byte string either decodes to a
    message or to a typed {!error} — it never raises, never reads out
    of bounds, and rejects both oversized frames (before buffering the
    payload) and payloads with trailing bytes. That totality is what
    lets the server treat a misbehaving client as a session-local
    event, and it is enforced by the [serve/codec-roundtrip] property
    in {!Prop.Props}. *)

val version : int
(** Current protocol version (1). *)

val default_limit : int
(** Default maximum payload size accepted by the decoder (16 MiB). *)

val header_bytes : int
(** Bytes of framing before the payload (the 4-byte length prefix). *)

(** Why the server refused a request that was syntactically valid. *)
type error_code =
  | Parse_failed  (** the submitted [.pla] program did not parse *)
  | Arity_mismatch  (** batch vector width ≠ the program's input count *)
  | Batch_too_large  (** more vectors than the server's per-request cap *)
  | Internal  (** anything else; the message says what *)

type matrix = private { m_rows : int; m_width : int; m_data : string }
(** A packed bit matrix, kept in wire form: [m_data] holds [m_rows] rows
    of [max 1 (ceil (m_width/8))] bytes each, bit [i] of a row in byte
    [i/8] at position [i mod 8] (LSB-first). Private so the
    length/stride invariant always holds; build with
    {!matrix_of_vectors}, {!matrix_init} or {!matrix_of_blocks}. *)

val matrix_stride : int -> int
(** Bytes per row at a given width: [max 1 (ceil (width/8))]. *)

val matrix_rows : matrix -> int

val matrix_width : matrix -> int

val matrix_of_vectors : bool array array -> matrix
(** Pack row vectors (all the same width; raises [Invalid_argument] on a
    ragged batch). An empty array packs as a 0×0 matrix. *)

val matrix_init : rows:int -> width:int -> (int -> int -> bool) -> matrix
(** [matrix_init ~rows ~width f] with bit [(r, i)] = [f r i]. *)

val matrix_row : matrix -> int -> bool array
(** Unpack one row. *)

val vectors_of_matrix : matrix -> bool array array
(** Unpack every row; inverse of {!matrix_of_vectors}. *)

val matrix_sub : matrix -> first:int -> len:int -> matrix
(** Row slice [first .. first+len-1]; used to chunk replies. *)

val matrix_block : matrix -> first:int -> lanes:int -> int array
(** Transposed gather for the bit-sliced evaluator: word [c] of the
    result packs column [c] of rows [first .. first+lanes-1], row
    [first+v] in bit [v] — the {!Runtime.Cache.block} layout, read
    straight from the packed bytes. [lanes <= 63]; bits at and above
    [lanes] are zero. Eight rows by eight columns move at a time through
    an 8×8 bit transpose (Hacker's Delight §7-3, on two 32-bit halves),
    so a 63-lane block is 7 groups of 8 rows and one of 7.
    @raise Invalid_argument if the rows are out of range. *)

val matrix_of_blocks : rows:int -> width:int -> int array array -> matrix
(** [matrix_of_blocks ~rows ~width blocks] is the inverse of
    {!matrix_block}: block [b] holds the lane words of rows
    [63b .. min rows (63b+63) - 1], bit [v] of word [c] being row
    [63b+v]'s column [c], and the result is the [rows × width] matrix
    they describe. The last block may be partial; bits in lanes past
    [rows] are ignored. Same 8×8 transpose kernel as {!matrix_block}.
    @raise Invalid_argument unless there are [ceil (rows/63)] blocks of
    [width] words each. *)

type message =
  | Eval_request of {
      tenant : string;  (** cache-quota accounting identity *)
      program : string;  (** the PLA program, espresso [.pla] text *)
      batch : matrix;  (** input vectors, one row per vector *)
    }
  | Classify_request of {
      tenant : string;  (** cache-quota accounting identity *)
      model : string;  (** registered classifier name, e.g. ["default"] *)
      batch : matrix;  (** feature vectors, one row per sample *)
    }
      (** Classify a batch on a server-registered crossbar model. The
          reply is the same [Result_chunk]/[Eval_done] stream as an eval
          request, each output row the binary-encoded predicted label
          (LSB-first, {!Classify.Model.label_bits} wide). An unknown
          [model] is answered with [Parse_failed]. *)
  | Ping
  | Result_chunk of {
      first : int;  (** batch index of [outputs] row 0 *)
      outputs : matrix;
    }
  | Eval_done of {
      total : int;  (** vectors evaluated, across all chunks *)
      cache_hit : bool;  (** compiled PLA came from the tenant cache *)
      eval_ns : int64;  (** server-side compile+eval wall time *)
    }
  | Overloaded of { queued : int; inflight : int }
      (** Admission control shed the request; the fields are the
          admission state at shed time, for client-side backoff. *)
  | Error_response of { code : error_code; message : string }
  | Pong

(** Typed decode failures. *)
type error =
  | Truncated of { expected : int; got : int }
      (** fewer bytes than the frame or field announced *)
  | Bad_magic of int
  | Unsupported_version of int
  | Bad_tag of int
  | Oversized of { length : int; limit : int }
      (** announced payload length exceeds the decoder's limit; raised
          before any payload byte is buffered *)
  | Bad_payload of string
      (** structurally invalid body (bad field, inconsistent sizes,
          trailing bytes) *)

val error_to_string : error -> string

val tag_name : message -> string
(** Short constructor name, for spans and logs. *)

(** {2 Pure codec} *)

val encode : message -> string
(** The full frame, length prefix included. Raises [Invalid_argument]
    on unencodable messages (string or matrix dimensions beyond the
    field widths). Exception: [Overloaded] counters saturate
    at 65535 instead of raising, so an overload response survives any
    configured queue bound. *)

val decode : ?limit:int -> string -> (message * int, error) result
(** Decode one frame from the head of the string; on success also
    returns the number of bytes consumed (so a buffer holding several
    frames can be walked). Never raises. *)

(** {2 Channel transport} *)

val write_message : out_channel -> message -> unit
(** Write one frame and flush. *)

val write_result_chunks : out_channel -> chunk:int -> matrix -> unit
(** Write [m] as consecutive [Result_chunk] frames of [chunk] rows each
    (the last may be shorter; none for a 0-row matrix), byte-identical to
    [encode (Result_chunk { first; outputs = matrix_sub m ~first ~len })]
    for each slice, framed straight from [m]'s bytes with no copy. Does
    not flush.
    @raise Invalid_argument if [chunk < 1] or the matrix dimensions are
    beyond the field widths. *)

val read_message : ?limit:int -> in_channel -> [ `Msg of message | `Eof | `Error of error ]
(** Read one frame. [`Eof] only at a clean frame boundary; end-of-input
    mid-frame is [`Error (Truncated _)]. An [Oversized] length prefix is
    reported without buffering the payload. *)
