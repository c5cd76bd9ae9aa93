(* Tests for the evaluation service over the pipe transport: wire codec
   edges the property battery can't pin down, happy-path serving with
   oracle-checked outputs, deterministic queue-full shedding, tenant
   quota eviction accounting, the program-text fast path (text index
   hits, evictions, rot found through the index), a client dying
   mid-stream while another session keeps being served, and clean
   shutdown draining inflight work. No sockets — every session runs on
   Unix.pipe pairs. *)

module Wire = Serve.Wire
module Server = Serve.Server
module Admission = Serve.Admission
module Tenants = Serve.Tenants
module Pool = Runtime.Pool
module Cache = Runtime.Cache

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- transport harness ---------------------------------------------------- *)

type client = {
  ic : in_channel;  (* server -> client *)
  oc : out_channel;  (* client -> server *)
  thread : Thread.t;
}

(* Spawn one server session over two pipes; the returned client talks to
   it. [finish] closes the client side and joins the session thread. *)
let connect server =
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let sic = Unix.in_channel_of_descr c2s_r in
  let soc = Unix.out_channel_of_descr s2c_w in
  let thread =
    Thread.create
      (fun () ->
        Server.serve_session server sic soc;
        close_out_noerr soc;
        close_in_noerr sic)
      ()
  in
  { ic = Unix.in_channel_of_descr s2c_r; oc = Unix.out_channel_of_descr c2s_w; thread }

let finish c =
  close_out_noerr c.oc;
  Thread.join c.thread;
  close_in_noerr c.ic

let small_config =
  {
    Server.default_config with
    jobs = Some 2;
    queue_limit = 0;
    max_inflight = 1;
    max_tenants = 2;
    tenant_quota = 1;
    chunk_vectors = 4;
    max_batch = 64;
  }

let read_msg c =
  match Wire.read_message c.ic with
  | `Msg m -> m
  | `Eof -> Alcotest.fail "unexpected EOF from server"
  | `Error e -> Alcotest.fail ("unexpected decode error: " ^ Wire.error_to_string e)

(* Drive one eval request to completion, gathering streamed chunks. *)
let request c ~tenant ~program ~batch =
  Wire.write_message c.oc
    (Wire.Eval_request { tenant; program; batch = Wire.matrix_of_vectors batch });
  let rec gather acc =
    match read_msg c with
    | Wire.Result_chunk { first; outputs } -> gather ((first, outputs) :: acc)
    | Wire.Eval_done { total; cache_hit; _ } -> `Done (total, cache_hit, List.rev acc)
    | Wire.Overloaded _ -> `Shed
    | Wire.Error_response { code; message } -> `Error (code, message)
    | m -> Alcotest.fail ("unexpected reply: " ^ Wire.tag_name m)
  in
  gather []

(* Drive one classification request to completion; replies share the
   eval stream shape. *)
let classify_request c ~tenant ~model ~batch =
  Wire.write_message c.oc
    (Wire.Classify_request { tenant; model; batch = Wire.matrix_of_vectors batch });
  let rec gather acc =
    match read_msg c with
    | Wire.Result_chunk { first; outputs } -> gather ((first, outputs) :: acc)
    | Wire.Eval_done { total; cache_hit; _ } -> `Done (total, cache_hit, List.rev acc)
    | Wire.Overloaded _ -> `Shed
    | Wire.Error_response { code; message } -> `Error (code, message)
    | m -> Alcotest.fail ("unexpected reply: " ^ Wire.tag_name m)
  in
  gather []

let pla_text cover =
  let n_in = Logic.Cover.num_inputs cover in
  let n_out = Logic.Cover.num_outputs cover in
  Logic.Pla_io.to_string ~on_set:cover ~dc_set:(Logic.Cover.empty ~n_in ~n_out) ()

let all_vectors n = Array.init (1 lsl n) (fun m -> Runtime.Batch.minterm n m)

(* --- wire codec edges ----------------------------------------------------- *)

let test_wire_exact_roundtrip () =
  let msgs =
    [
      Wire.Eval_request
        {
          tenant = "t0";
          program = ".i 1\n.o 1\n1 1\n.e\n";
          batch = Wire.matrix_of_vectors [| [| true |]; [| false |] |];
        };
      Wire.Eval_request { tenant = ""; program = ""; batch = Wire.matrix_of_vectors [||] };
      Wire.Classify_request
        {
          tenant = "t1";
          model = "default";
          batch = Wire.matrix_of_vectors [| Array.init 8 (fun i -> i mod 3 = 0) |];
        };
      Wire.Classify_request { tenant = ""; model = ""; batch = Wire.matrix_of_vectors [||] };
      Wire.Ping;
      Wire.Result_chunk
        { first = 7; outputs = Wire.matrix_of_vectors [| [| true; false; true |] |] };
      (* width-0 rows still occupy one byte each on the wire *)
      Wire.Result_chunk
        { first = 0; outputs = Wire.matrix_of_vectors [| [||]; [||]; [||] |] };
      Wire.Eval_done { total = 12; cache_hit = true; eval_ns = 123456789L };
      Wire.Overloaded { queued = 3; inflight = 8 };
      Wire.Error_response { code = Wire.Parse_failed; message = "line 2: bad cube" };
      Wire.Pong;
    ]
  in
  List.iter
    (fun m ->
      let bytes = Wire.encode m in
      match Wire.decode bytes with
      | Ok (m', n) ->
        checkb ("roundtrip " ^ Wire.tag_name m) true (m = m');
        checki "consumed whole frame" (String.length bytes) n
      | Error e -> Alcotest.fail (Wire.error_to_string e))
    msgs

let test_wire_oversized_rejected_before_buffering () =
  let big =
    Wire.Eval_request
      { tenant = "t"; program = String.make 4096 '.'; batch = Wire.matrix_of_vectors [||] }
  in
  let bytes = Wire.encode big in
  match Wire.decode ~limit:64 bytes with
  | Error (Wire.Oversized { length; limit }) ->
    checkb "announced length" true (length > 64);
    checki "limit echoed" 64 limit
  | _ -> Alcotest.fail "expected Oversized"

let test_wire_garbage_is_typed_error () =
  (* every prefix of a valid frame, with every byte clobbered in turn:
     always a typed error or a clean parse, never an exception *)
  let bytes = Wire.encode (Wire.Overloaded { queued = 1; inflight = 2 }) in
  for cut = 0 to String.length bytes - 1 do
    match Wire.decode (String.sub bytes 0 cut) with
    | Error (Wire.Truncated _) -> ()
    | Ok _ | Error _ -> Alcotest.fail "truncation must decode as Truncated"
  done;
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match Wire.decode (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
  done

let test_wire_forged_row_count_bounded () =
  (* A zero-width matrix claiming 2^32-1 rows in a 13-byte payload must
     die as Truncated before any allocation is sized from the claim —
     rows cost at least one byte each on the wire, so the bounds check
     caps the count even when the per-row bit payload is empty. *)
  let b = Buffer.create 32 in
  Buffer.add_int32_be b 13l (* payload length *);
  Buffer.add_uint8 b 0x43 (* magic *);
  Buffer.add_uint8 b Wire.version;
  Buffer.add_uint8 b 0x81 (* Result_chunk *);
  Buffer.add_int32_be b 0l (* first *);
  Buffer.add_int32_be b 0xFFFFFFFFl (* claimed rows *);
  Buffer.add_uint16_be b 0 (* width 0 *);
  match Wire.decode (Buffer.contents b) with
  | Error (Wire.Truncated _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "forged row count must decode as Truncated"

(* --- happy path ------------------------------------------------------------ *)

let test_happy_path () =
  let server = Server.create { small_config with max_inflight = 4; queue_limit = 8 } in
  let cover = Mcnc.Generators.gray ~bits:3 in
  let oracle = Cnfet.Pla.of_cover cover in
  let batch = all_vectors 3 in
  let c = connect server in
  Wire.write_message c.oc Wire.Ping;
  checkb "ping-pong" true (read_msg c = Wire.Pong);
  (match request c ~tenant:"alice" ~program:(pla_text cover) ~batch with
  | `Done (total, hit_first, chunks) ->
    checki "all vectors evaluated" (Array.length batch) total;
    checkb "first compile is a miss" false hit_first;
    (* chunking honoured and outputs bit-identical to direct Pla.eval *)
    checkb "chunked" true (List.length chunks > 1);
    List.iter
      (fun (first, outputs) ->
        for i = 0 to Wire.matrix_rows outputs - 1 do
          checkb "oracle match" true
            (Wire.matrix_row outputs i = Cnfet.Pla.eval oracle batch.(first + i))
        done)
      chunks
  | _ -> Alcotest.fail "expected Done");
  (match request c ~tenant:"alice" ~program:(pla_text cover) ~batch with
  | `Done (_, hit_second, _) -> checkb "second compile hits the tenant cache" true hit_second
  | _ -> Alcotest.fail "expected Done");
  finish c;
  Server.stop server;
  let s = Server.stats server in
  checki "no session errors" 0 s.Server.session_errors;
  checki "two ok responses" 2 s.Server.responses_ok

let test_block_path_oracle () =
  (* Batch sizes straddling the 63-lane block, programs whose input and output widths straddle byte
     boundaries, and a chunk size that divides none of the batches:
     every row of every reply must match Pla.eval, and the chunks must
     tile the batch in order. *)
  let chunk = 97 in
  let server =
    Server.create
      {
        small_config with
        max_inflight = 4;
        queue_limit = 8;
        tenant_quota = 8;
        chunk_vectors = chunk;
        max_batch = 1000;
      }
  in
  let rng = Util.Rng.create 2008 in
  let programs =
    List.map
      (fun (n_in, n_out) ->
        Logic.Cover.random rng ~n_in ~n_out ~n_cubes:(2 * n_in) ~dc_bias:0.5)
      [ (1, 1); (8, 9); (9, 8); (17, 17) ]
  in
  let c = connect server in
  List.iter
    (fun cover ->
      let oracle = Cnfet.Pla.of_cover cover in
      let n_in = Logic.Cover.num_inputs cover in
      List.iter
        (fun n ->
          let batch = Array.init n (fun _ -> Array.init n_in (fun _ -> Util.Rng.bool rng)) in
          let what = Printf.sprintf "%d inputs, %d vectors" n_in n in
          match request c ~tenant:"blocks" ~program:(pla_text cover) ~batch with
          | `Done (total, _, chunks) ->
            checki (what ^ ": total") n total;
            let next =
              List.fold_left
                (fun expected_first (first, outputs) ->
                  let rows = Wire.matrix_rows outputs in
                  checki (what ^ ": chunk starts where the last ended") expected_first first;
                  checkb (what ^ ": chunk size") true (rows >= 1 && rows <= chunk);
                  checki (what ^ ": output width") (Cnfet.Pla.num_outputs oracle)
                    (Wire.matrix_width outputs);
                  for i = 0 to rows - 1 do
                    checkb (what ^ ": oracle match") true
                      (Wire.matrix_row outputs i = Cnfet.Pla.eval oracle batch.(first + i))
                  done;
                  first + rows)
                0 chunks
            in
            checki (what ^ ": chunks cover the batch") n next
          | _ -> Alcotest.fail (what ^ ": expected Done"))
        [ 0; 1; 62; 63; 64; 126; 127; 512; 513; 1000 ])
    programs;
  finish c;
  Server.stop server;
  let s = Server.stats server in
  checki "no request errors" 0 s.Server.request_errors;
  checki "no session errors" 0 s.Server.session_errors

let test_classify_served_oracle () =
  (* Classification rides the same admission / cache / eval machinery;
     every served label must match Model.predict on the oracle side. *)
  let server = Server.create { small_config with max_inflight = 4; queue_limit = 8 } in
  let model = Classify.Pretrained.model in
  let batch =
    Array.init 32 (fun i -> fst (Classify.Dataset.sample Classify.Dataset.default ~seed:4242 i))
  in
  let c = connect server in
  (match classify_request c ~tenant:"alice" ~model:"default" ~batch with
  | `Done (total, hit_first, chunks) ->
    checki "all samples classified" (Array.length batch) total;
    checkb "first compile is a miss" false hit_first;
    List.iter
      (fun (first, outputs) ->
        for i = 0 to Wire.matrix_rows outputs - 1 do
          let expect =
            Classify.Model.encode_label model (Classify.Model.predict model batch.(first + i))
          in
          checkb "label matches Model.predict" true (Wire.matrix_row outputs i = expect)
        done)
      chunks
  | _ -> Alcotest.fail "expected Done");
  (match classify_request c ~tenant:"alice" ~model:"default" ~batch with
  | `Done (_, hit_second, _) ->
    checkb "second classify hits the tenant cache" true hit_second
  | _ -> Alcotest.fail "expected Done");
  (match classify_request c ~tenant:"alice" ~model:"nonesuch" ~batch with
  | `Error (Wire.Parse_failed, _) -> ()
  | _ -> Alcotest.fail "unknown model must answer Parse_failed");
  (match
     classify_request c ~tenant:"alice" ~model:"default" ~batch:[| [| true; false |] |]
   with
  | `Error (Wire.Arity_mismatch, _) -> ()
  | _ -> Alcotest.fail "feature-width mismatch must answer Arity_mismatch");
  finish c;
  Server.stop server;
  let s = Server.stats server in
  checki "no session errors" 0 s.Server.session_errors

let test_loadgen_classify_mix () =
  (* The generator mixes classification into the stream and live-checks
     every label against the Model.predict oracle: zero miscompares. *)
  let server =
    Server.create { Server.default_config with jobs = Some 2; queue_limit = 8; max_inflight = 4 }
  in
  let connect_pipe () =
    let c = connect server in
    (c.ic, c.oc, fun () -> finish c)
  in
  let cfg =
    {
      Serve.Loadgen.connect = connect_pipe;
      concurrency = 2;
      tenants = 2;
      requests_per_worker = 10;
      batch = 8;
      seed = 99;
      classify_share = 0.5;
    }
  in
  let r = Serve.Loadgen.run ~label:"mix" cfg in
  Server.stop server;
  checki "no miscompares" 0 r.Serve.Loadgen.miscompares;
  checki "no errors" 0 r.Serve.Loadgen.errors;
  checki "nothing shed at this depth" 0 r.Serve.Loadgen.shed;
  checkb "classification traffic present" true (r.Serve.Loadgen.classified > 0);
  checkb "eval traffic still present" true
    (r.Serve.Loadgen.completed > r.Serve.Loadgen.classified)

let test_request_errors_are_typed () =
  let server = Server.create small_config in
  let c = connect server in
  (match request c ~tenant:"t" ~program:"this is not a pla" ~batch:[||] with
  | `Error (Wire.Parse_failed, _) -> ()
  | _ -> Alcotest.fail "expected Parse_failed");
  let cover = Mcnc.Generators.xor_n 3 in
  (match request c ~tenant:"t" ~program:(pla_text cover) ~batch:[| [| true; false |] |] with
  | `Error (Wire.Arity_mismatch, _) -> ()
  | _ -> Alcotest.fail "expected Arity_mismatch");
  (match
     request c ~tenant:"t" ~program:(pla_text cover)
       ~batch:(Array.make 65 (Array.make 3 false))
   with
  | `Error (Wire.Batch_too_large, _) -> ()
  | _ -> Alcotest.fail "expected Batch_too_large");
  (* the session survived all three rejections *)
  (match request c ~tenant:"t" ~program:(pla_text cover) ~batch:(all_vectors 3) with
  | `Done _ -> ()
  | _ -> Alcotest.fail "expected Done after rejected requests");
  finish c;
  Server.stop server

(* --- admission control ------------------------------------------------------ *)

let test_queue_full_sheds_overloaded () =
  (* max_inflight 1, queue 0: occupy the only slot out-of-band, so the
     next request must shed — deterministically, no timing involved. *)
  let server = Server.create small_config in
  let adm = Server.admission server in
  checkb "slot taken out-of-band" true (Admission.admit adm = Admission.Admitted);
  let program = pla_text (Mcnc.Generators.xor_n 3) in
  let c = connect server in
  (match request c ~tenant:"t" ~program ~batch:(all_vectors 3) with
  | `Shed -> ()
  | _ -> Alcotest.fail "expected Overloaded while the slot is held");
  checki "shed metered" 1 (Admission.shed_total adm);
  Admission.release adm;
  (* slot free again: the same session is served normally *)
  (match request c ~tenant:"t" ~program ~batch:(all_vectors 3) with
  | `Done (total, _, _) -> checki "served after release" 8 total
  | _ -> Alcotest.fail "expected Done once the slot freed");
  finish c;
  Server.stop server

let test_clean_shutdown_drains_inflight () =
  let server = Server.create { small_config with max_inflight = 4 } in
  let pool = Server.pool server in
  let counter = Atomic.make 0 in
  let futs =
    List.init 8 (fun _ ->
        Pool.submit pool (fun () ->
            Thread.delay 0.005;
            Atomic.incr counter))
  in
  Server.stop server;
  checki "every inflight task finished before stop returned" 8 (Atomic.get counter);
  List.iter Pool.await futs;
  (* and admission is closed: everything after stop is shed, not queued *)
  match Admission.admit (Server.admission server) with
  | Admission.Shed _ -> ()
  | Admission.Admitted -> Alcotest.fail "admission must be closed after stop"

(* --- tenant quotas ----------------------------------------------------------- *)

let test_tenant_quota_entry_eviction () =
  (* quota 1: a tenant's second program evicts its first (metered by the
     tenant's own cache), and the other tenant's entry is untouched. *)
  let server = Server.create small_config in
  let tenants = Server.tenants server in
  let p1 = pla_text (Mcnc.Generators.xor_n 3) in
  let p2 = pla_text (Mcnc.Generators.majority 3) in
  let c = connect server in
  let eval ~tenant program =
    match request c ~tenant ~program ~batch:(all_vectors 3) with
    | `Done _ -> ()
    | _ -> Alcotest.fail "expected Done"
  in
  eval ~tenant:"alice" p1;
  eval ~tenant:"bob" p1;
  checki "no evictions yet" 0 (Tenants.entry_evictions tenants);
  eval ~tenant:"alice" p2;
  checki "alice's LRU entry evicted" 1 (Tenants.entry_evictions tenants);
  checki "no whole-tenant eviction" 0 (Tenants.tenant_evictions tenants);
  (* bob's cached entry survived alice's churn *)
  let bob_cache = Tenants.cache tenants "bob" in
  let hits0 = Runtime.Cache.hits bob_cache in
  eval ~tenant:"bob" p1;
  checkb "bob still hits his cache" true (Runtime.Cache.hits bob_cache > hits0);
  finish c;
  Server.stop server

let test_tenant_lru_eviction_metered () =
  (* max_tenants 2: a third tenant evicts the least-recently-used one,
     carrying its entry count into the meters. *)
  let tenants = Tenants.create ~max_tenants:2 ~quota:4 () in
  let touch name = ignore (Tenants.cache tenants name : Runtime.Cache.t) in
  touch "alice";
  touch "bob";
  touch "alice" (* bob is now LRU *);
  touch "carol";
  checki "one tenant evicted" 1 (Tenants.tenant_evictions tenants);
  checki "two tenants live" 2 (Tenants.tenant_count tenants);
  checkb "bob was the victim" true
    (List.for_all (fun (name, _) -> name <> "bob") (Tenants.stats tenants));
  checkb "alice survived" true
    (List.exists (fun (name, _) -> name = "alice") (Tenants.stats tenants))

(* --- the program-text fast path ------------------------------------------------ *)

let fast_config = { small_config with max_inflight = 4; queue_limit = 8; tenant_quota = 4 }

let check_oracle what cover batch = function
  | `Done (total, hit, chunks) ->
    let oracle = Cnfet.Pla.of_cover cover in
    checki (what ^ ": total") (Array.length batch) total;
    List.iter
      (fun (first, outputs) ->
        for i = 0 to Wire.matrix_rows outputs - 1 do
          checkb (what ^ ": oracle match") true
            (Wire.matrix_row outputs i = Cnfet.Pla.eval oracle batch.(first + i))
        done)
      chunks;
    hit
  | `Shed -> Alcotest.fail (what ^ ": shed")
  | `Error (_, m) -> Alcotest.fail (what ^ ": " ^ m)

let test_text_index_hits () =
  let server = Server.create fast_config in
  let tenants = Server.tenants server in
  let cover = Mcnc.Generators.majority 3 in
  let text = pla_text cover in
  let batch = all_vectors 3 in
  let c = connect server in
  checkb "first request misses" false
    (check_oracle "first" cover batch (request c ~tenant:"t" ~program:text ~batch));
  checkb "same text hits" true
    (check_oracle "second" cover batch (request c ~tenant:"t" ~program:text ~batch));
  let cache = Tenants.cache tenants "t" in
  checki "one entry" 1 (Cache.size cache);
  checki "one text" 1 (Cache.text_index_size cache);
  (* a comment and input labels change the text, not the cover *)
  let relabelled = "# the same majority\n.ilb a b c\n" ^ text in
  checkb "another text of the cover hits its entry" true
    (check_oracle "relabelled" cover batch (request c ~tenant:"t" ~program:relabelled ~batch));
  checki "the two texts share one entry" 1 (Cache.size cache);
  checki "both texts indexed" 2 (Cache.text_index_size cache);
  checkb "the relabelled text now hits the index" true
    (Cache.text_cached cache relabelled);
  (* another tenant has its own index *)
  checkb "same text misses under another tenant" false
    (check_oracle "bob" cover batch (request c ~tenant:"bob" ~program:text ~batch));
  finish c;
  Server.stop server

let test_text_index_eviction () =
  (* quota 1: the second program evicts the first entry and its text,
     and the first text then recompiles and answers correctly *)
  let server = Server.create small_config in
  let cache = Tenants.cache (Server.tenants server) "t" in
  let p1 = Mcnc.Generators.xor_n 3 and p2 = Mcnc.Generators.majority 3 in
  let batch = all_vectors 3 in
  let c = connect server in
  let send cover = check_oracle "evict" cover batch (request c ~tenant:"t" ~program:(pla_text cover) ~batch) in
  ignore (send p1 : bool);
  checkb "p1 hits" true (send p1);
  ignore (send p2 : bool);
  checki "one entry left" 1 (Cache.size cache);
  checkb "p1's text left with its entry" false (Cache.text_cached cache (pla_text p1));
  checkb "bounded index" true
    (Cache.text_index_size cache <= Cache.aliases_per_entry * Cache.size cache);
  checkb "evicted text recompiles" false (send p1);
  checkb "and hits again" true (send p1);
  finish c;
  Server.stop server

let test_text_index_rejects () =
  let server = Server.create fast_config in
  let cache = Tenants.cache (Server.tenants server) "t" in
  let c = connect server in
  for _ = 1 to 2 do
    match request c ~tenant:"t" ~program:"this is not a pla" ~batch:[||] with
    | `Error (Wire.Parse_failed, _) -> ()
    | _ -> Alcotest.fail "an unparsable text answers Parse_failed every time"
  done;
  checki "an unparsable text never enters the index" 0 (Cache.text_index_size cache);
  checki "nor the cache" 0 (Cache.size cache);
  let cover = Mcnc.Generators.xor_n 3 in
  let text = pla_text cover in
  ignore (check_oracle "warm" cover (all_vectors 3) (request c ~tenant:"t" ~program:text ~batch:(all_vectors 3)) : bool);
  let hits = Cache.hits cache in
  (match request c ~tenant:"t" ~program:text ~batch:[| [| true; false |] |] with
  | `Error (Wire.Arity_mismatch, _) -> ()
  | _ -> Alcotest.fail "a cached text with the wrong batch width answers Arity_mismatch");
  checki "a rejected request counts no hit" hits (Cache.hits cache);
  checkb "and keeps its text" true (Cache.text_cached cache text);
  finish c;
  Server.stop server

let test_text_index_rot () =
  (* Cache_store rot through the daemon path: every reply is
     bit-identical to Pla.eval, every rot is detected, no request
     compiles more than the chain allows (three on a miss: cover key,
     its recompile, plane key; two after a rotten hit), and a program
     that ends up served compiled is a text-index hit from then on.
     Then an entry rots in place and is found through the index: one
     rot, one recompile. *)
  let server = Server.create { fast_config with tenant_quota = 32; max_batch = 1000 } in
  let cache = Tenants.cache (Server.tenants server) "t" in
  let metrics = Runtime.Metrics.create () in
  Cache.export_metrics cache metrics;
  let detected () = List.assoc "cache.corruptions_detected" (Runtime.Metrics.gauges metrics) in
  let c = connect server in
  let programs = List.filter (fun (_, f) -> Logic.Cover.num_inputs f <= 8) Mcnc.Generators.all in
  let send cover =
    let n_in = Logic.Cover.num_inputs cover in
    let batch = Array.init 70 (fun m -> Runtime.Batch.minterm n_in (m * 37 mod (1 lsl n_in))) in
    let misses = Cache.misses cache in
    let hit = check_oracle "rot" cover batch (request c ~tenant:"t" ~program:(pla_text cover) ~batch) in
    (hit, Cache.misses cache - misses)
  in
  let parsed cover = (Logic.Pla_io.parse (pla_text cover)).Logic.Pla_io.on_set in
  Fault.Inject.with_armed ~seed:3 { Fault.Inject.nothing with Fault.Inject.cache_corrupt = 0.5 }
    (fun engine ->
      let planted = ref 0 in
      List.iter
        (fun (name, cover) ->
          let _, first = send cover in
          checkb (name ^ ": at most three compiles") true (first <= 3);
          let fallback = (Server.stats server).Server.fallback_evals in
          let hit, compiles = send cover in
          if (Server.stats server).Server.fallback_evals = fallback then begin
            checkb (name ^ ": served compiled, then a text hit") true hit;
            checki (name ^ ": a text hit compiles nothing") 0 compiles;
            if first = 3 then begin
              (* the cover key rots on every store, so the text points at
                 the plane-content entry: rot that one in place *)
              Cache.corrupt_for_test (Cache.compile_of_pla cache (Cnfet.Pla.of_cover (parsed cover)));
              incr planted;
              let _, compiles = send cover in
              checki (name ^ ": index rot, then the recompile and the plane key") 2 compiles
            end
          end
          else checkb (name ^ ": uncompiled again, at most three compiles") true (compiles <= 3))
        programs;
      let injected = List.assoc "cache_corrupt" (Fault.Inject.counts engine) in
      checkb "the plan rotted some stores" true (injected > 0);
      checkb "some text pointed at a plane-content entry" true (!planted > 0);
      checki "every rot detected" (injected + !planted) (Cache.corruptions cache);
      checkb "the gauge counts them" true (detected () = float (injected + !planted)));
  let cover = Mcnc.Generators.gray ~bits:3 in
  ignore (send cover : bool * int);
  let rots = Cache.corruptions cache in
  (* the daemon keys the cover it parsed from the text *)
  Cache.corrupt_for_test (Cache.compile cache (parsed cover));
  let hit, compiles = send cover in
  checkb "a rotten index hit is not a hit" false hit;
  checki "it counts as one rot" (rots + 1) (Cache.corruptions cache);
  checki "and recompiles once" 1 compiles;
  checkb "then hits again" true (fst (send cover));
  finish c;
  Server.stop server

let test_trace_shows_path () =
  (* serve.parse opens only on the slow path; serve.compile says which
     path each request took *)
  let server = Server.create fast_config in
  let cover = Mcnc.Generators.xor_n 3 in
  let c = connect server in
  let t = Obs.Trace.create () in
  Obs.Trace.install t;
  Fun.protect ~finally:Obs.Trace.uninstall (fun () ->
      for _ = 1 to 2 do
        ignore (check_oracle "traced" cover (all_vectors 3) (request c ~tenant:"t" ~program:(pla_text cover) ~batch:(all_vectors 3)) : bool)
      done);
  finish c;
  Server.stop server;
  let begins name =
    List.filter
      (fun e -> e.Obs.Event.name = name && e.Obs.Event.phase = Obs.Event.Begin)
      (Obs.Trace.events t)
  in
  checki "one parse, on the miss" 1 (List.length (begins "serve.parse"));
  checkb "compile spans say miss then text hit" true
    (List.map (fun e -> List.assoc_opt "text_hit" e.Obs.Event.args) (begins "serve.compile")
    = [ Some "false"; Some "true" ])

(* --- session supervision ------------------------------------------------------ *)

let test_disconnect_leaves_other_sessions_alive () =
  let server = Server.create { small_config with max_inflight = 4 } in
  let cover = Mcnc.Generators.xor_n 3 in
  let healthy = connect server in
  (* victim dies mid-frame: half a header, then hangup *)
  let victim = connect server in
  output_string victim.oc "\x00\x00";
  finish victim;
  (* victim's death is metered as a session error, not a crash *)
  let rec wait_metered n =
    if n = 0 then Alcotest.fail "victim session never ended"
    else if (Server.stats server).Server.session_errors = 0 then begin
      Thread.delay 0.005;
      wait_metered (n - 1)
    end
  in
  wait_metered 200;
  (* and the healthy session still serves, bit-exact *)
  (match request healthy ~tenant:"t" ~program:(pla_text cover) ~batch:(all_vectors 3) with
  | `Done (total, _, _) -> checki "healthy session served" 8 total
  | _ -> Alcotest.fail "expected Done on the healthy session");
  (* a poison frame (valid framing, garbage inside) also stays contained *)
  let oversized = connect server in
  Wire.write_message oversized.oc
    (Wire.Eval_request
       {
         tenant = "t";
         program = String.make (Server.default_config.Server.max_frame / 1024) 'x';
         batch = Wire.matrix_of_vectors [||];
       });
  (match request healthy ~tenant:"t" ~program:(pla_text cover) ~batch:(all_vectors 3) with
  | `Done _ -> ()
  | _ -> Alcotest.fail "healthy session must survive a noisy neighbour");
  finish oversized;
  finish healthy;
  Server.stop server;
  checki "daemon survived: no worker crashes" 0 (Pool.crashes (Server.pool server))

let () =
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "exact roundtrip" `Quick test_wire_exact_roundtrip;
          Alcotest.test_case "oversized rejected" `Quick test_wire_oversized_rejected_before_buffering;
          Alcotest.test_case "mangled frames are typed errors" `Quick test_wire_garbage_is_typed_error;
          Alcotest.test_case "forged row count bounded" `Quick test_wire_forged_row_count_bounded;
        ] );
      ( "serving",
        [
          Alcotest.test_case "happy path, oracle-checked" `Quick test_happy_path;
          Alcotest.test_case "block path at every batch shape, oracle-checked" `Quick
            test_block_path_oracle;
          Alcotest.test_case "classification, oracle-checked" `Quick test_classify_served_oracle;
          Alcotest.test_case "loadgen classify mix, zero miscompares" `Quick
            test_loadgen_classify_mix;
          Alcotest.test_case "typed request errors" `Quick test_request_errors_are_typed;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-full sheds Overloaded" `Quick test_queue_full_sheds_overloaded;
          Alcotest.test_case "clean shutdown drains inflight" `Quick
            test_clean_shutdown_drains_inflight;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "entry quota eviction metered" `Quick test_tenant_quota_entry_eviction;
          Alcotest.test_case "tenant LRU eviction metered" `Quick test_tenant_lru_eviction_metered;
        ] );
      ( "text index",
        [
          Alcotest.test_case "same text hits, texts of one cover share" `Quick test_text_index_hits;
          Alcotest.test_case "evicted text recompiles" `Quick test_text_index_eviction;
          Alcotest.test_case "parse and arity rejects" `Quick test_text_index_rejects;
          Alcotest.test_case "store and in-place rot through the index" `Quick test_text_index_rot;
          Alcotest.test_case "trace shows the path" `Quick test_trace_shows_path;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "mid-stream disconnect contained" `Quick
            test_disconnect_leaves_other_sessions_alive;
        ] );
    ]
