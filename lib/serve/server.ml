module Metrics = Runtime.Metrics
module Cache = Runtime.Cache

type config = {
  jobs : int option;
  queue_limit : int;
  max_inflight : int;
  max_tenants : int;
  tenant_quota : int;
  max_frame : int;
  chunk_vectors : int;
  max_batch : int;
}

let default_config =
  {
    jobs = None;
    queue_limit = 64;
    max_inflight = 8;
    max_tenants = 16;
    tenant_quota = 32;
    max_frame = 4 * 1024 * 1024;
    chunk_vectors = 512;
    max_batch = 65536;
  }

type stats = {
  sessions_active : int;
  sessions_total : int;
  requests : int;
  responses_ok : int;
  request_errors : int;
  session_errors : int;
  vectors_evaluated : int;
  fallback_evals : int;
}

(* The registry is the one record of what the daemon did: [stats] reads
   these counter handles, resolved once at [create] so the request path
   never looks a name up. Active sessions are opened minus ended. *)
type counters = {
  sessions : Metrics.counter;
  sessions_ended : Metrics.counter;
  requests : Metrics.counter;
  responses_ok : Metrics.counter;
  request_errors : Metrics.counter;
  request_crashes : Metrics.counter;
  session_errors : Metrics.counter;
  decode_errors : Metrics.counter;
  vectors : Metrics.counter;
  fallback_evals : Metrics.counter;
}

type t = {
  cfg : config;
  metrics : Metrics.t;
  pool : Runtime.Pool.t;
  admission : Admission.t;
  tenants : Tenants.t;
  c : counters;
  eval_latency : Runtime.Histogram.t;
  stop_flag : bool Atomic.t;
  mutable sock_path : string option;  (* set while [run_unix] is live *)
}

let create ?metrics cfg =
  (* A client that hangs up mid-stream must surface as EPIPE on write
     (handled per-session), not as a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if cfg.chunk_vectors < 1 then invalid_arg "Server.create: chunk_vectors < 1";
  if cfg.max_batch < 1 then invalid_arg "Server.create: max_batch < 1";
  if cfg.max_frame < Wire.header_bytes then invalid_arg "Server.create: max_frame too small";
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let pool = Runtime.Pool.create ~metrics ?jobs:cfg.jobs () in
  let admission = Admission.create ~metrics ~queue_limit:cfg.queue_limit ~max_inflight:cfg.max_inflight () in
  let tenants = Tenants.create ~metrics ~max_tenants:cfg.max_tenants ~quota:cfg.tenant_quota () in
  let counter name = Metrics.counter metrics ("serve." ^ name) in
  {
    cfg;
    metrics;
    pool;
    admission;
    tenants;
    c =
      {
        sessions = counter "sessions";
        sessions_ended = counter "sessions_ended";
        requests = counter "requests";
        responses_ok = counter "responses_ok";
        request_errors = counter "request_errors";
        request_crashes = counter "request_crashes";
        session_errors = counter "session_errors";
        decode_errors = counter "decode_errors";
        vectors = counter "vectors";
        fallback_evals = counter "fallback_evals";
      };
    eval_latency = Metrics.histogram metrics "serve.eval_latency_s";
    stop_flag = Atomic.make false;
    sock_path = None;
  }

let config t = t.cfg
let admission t = t.admission
let tenants t = t.tenants
let pool t = t.pool

let stats t =
  let c = t.c in
  (* ended before opened: a session is counted opened before it can
     end, so the difference never reads negative *)
  let ended = Metrics.count c.sessions_ended in
  let sessions_total = Metrics.count c.sessions in
  {
    sessions_active = sessions_total - ended;
    sessions_total;
    requests = Metrics.count c.requests;
    responses_ok = Metrics.count c.responses_ok;
    request_errors = Metrics.count c.request_errors;
    session_errors = Metrics.count c.session_errors;
    vectors_evaluated = Metrics.count c.vectors;
    fallback_evals = Metrics.count c.fallback_evals;
  }

(* ------------------------------------------------------------------ *)
(* Request pipeline: admit -> parse -> compile -> eval.               *)

exception Reject of Wire.error_code * string
(* request-level failure; answered with [Error_response], session lives *)

(* The classifier registry: model name -> lowered crossbar. Lowering
   (minterm enumeration + espresso) is paid once per process on first
   classify request, then every request compiles the mapped cover
   through the same per-tenant cache as eval programs. *)
let classify_models =
  lazy [ ("default", Classify.Map.lower Classify.Pretrained.model) ]

let lookup_model name =
  match List.assoc_opt name (Lazy.force classify_models) with
  | Some mapped -> mapped
  | None -> raise (Reject (Wire.Parse_failed, Printf.sprintf "unknown model %S" name))

let parse_program program =
  match Logic.Pla_io.parse program with
  | spec -> spec
  | exception Logic.Pla_io.Parse_error (line, msg) ->
    raise (Reject (Wire.Parse_failed, Printf.sprintf "line %d: %s" line msg))
  | exception e -> raise (Reject (Wire.Parse_failed, Printexc.to_string e))

(* Inline or pool by work, not by vector count. A compiled request
   costs one word op per non-Drop crosspoint per 63-vector block; an
   uncompiled one walks every crosspoint once per vector. Handing a
   request's blocks to the pool costs tens of microseconds of futures
   and wake-ups whatever the work, so below [pool_crossover] the
   hand-off would cost more than the evaluation it spreads. The
   constant is measured by [bench/main.exe serve_crossover]; see
   EXPERIMENTS.md, "Serve request fast path". *)
let pool_crossover = 16_000

let work engine ~rows =
  match engine with
  | Cache.Compiled c ->
    (rows + Cache.lanes_per_word - 1) / Cache.lanes_per_word * Cache.crosspoints c
  | Cache.Uncompiled pla -> rows * Cnfet.Pla.crosspoint_count pla

let on_pool engine ~rows = work engine ~rows >= pool_crossover

type reply =
  | Stream of { outputs : Wire.matrix; cache_hit : bool; eval_ns : int64 }
  | One of Wire.message

(* The compiled path: every 63-vector block, the last one partial
   ([lanes < 63]), is gathered straight from the request matrix's packed
   bytes into lane words ([Wire.matrix_block]) and evaluated bit-sliced,
   with one pool item per block when [on_pool]. The reply matrix comes
   straight from the output lane words ([Wire.matrix_of_blocks]); both
   directions use the 8x8 bit-transpose kernel. *)
let eval_engine t ~on_pool engine batch =
  let n = Wire.matrix_rows batch in
  let map f items =
    if on_pool then Runtime.Batch.map ~metrics:t.metrics t.pool f items else Array.map f items
  in
  match engine with
  | Cache.Compiled compiled ->
    let lanes_max = Cache.lanes_per_word in
    let n_blocks = (n + lanes_max - 1) / lanes_max in
    let eval_block b =
      let first = b * lanes_max in
      let lanes = min lanes_max (n - first) in
      Cache.eval_block compiled { Cache.words = Wire.matrix_block batch ~first ~lanes; lanes }
    in
    let blocks = map eval_block (Array.init n_blocks Fun.id) in
    Wire.matrix_of_blocks ~rows:n ~width:(Cnfet.Pla.num_outputs (Cache.pla compiled)) blocks
  | Cache.Uncompiled pla ->
    let rows = map (fun i -> Cnfet.Pla.eval pla (Wire.matrix_row batch i)) (Array.init n Fun.id) in
    Wire.matrix_init ~rows:n ~width:(Cnfet.Pla.num_outputs pla) (fun r o -> rows.(r).(o))

(* Shared request wrapper: count, admit (or shed), cap the batch, and
   convert any per-request explosion to a typed error — the daemon and
   other sessions keep going. [f] gets the admitted batch size and runs
   the request-specific parse/compile/eval. *)
let admitted t ~batch f =
  Metrics.incr t.c.requests;
  match Obs.Span.with_ "serve.admit" (fun () -> Admission.admit t.admission) with
  | Admission.Shed { queued; inflight } -> One (Wire.Overloaded { queued; inflight })
  | Admission.Admitted -> (
    match
      Fun.protect
        ~finally:(fun () -> Admission.release t.admission)
        (fun () ->
          let n = Wire.matrix_rows batch in
          if n > t.cfg.max_batch then
            raise
              (Reject
                 ( Wire.Batch_too_large,
                   Printf.sprintf "%d vectors exceed the per-request cap of %d" n t.cfg.max_batch ));
          f n)
    with
    | reply -> reply
    | exception Reject (code, message) -> One (Wire.Error_response { code; message })
    | exception e ->
      Metrics.incr t.c.request_crashes;
      One (Wire.Error_response { code = Wire.Internal; message = Printexc.to_string e }))

(* Look the program up in the tenant's cache through its failure policy
   ([lookup] is a [Cache.evaluator] call) and evaluate the batch, timing
   the whole thing. The hit flag is the cache's answer for this lookup
   alone: diffing its shared hit counter would race with concurrent
   requests on the same tenant. *)
let compile_and_eval t ~tenant ~batch ~n ?(args = fun _ -> []) lookup =
  let t0 = Obs.Clock.monotonic () in
  let cache = Tenants.cache t.tenants tenant in
  let engine, cache_hit =
    Obs.Span.with_ ~args:(("tenant", tenant) :: args cache) "serve.compile" (fun () -> lookup cache)
  in
  (match engine with
  | Cache.Uncompiled _ -> Metrics.incr t.c.fallback_evals
  | Cache.Compiled _ -> ());
  let outputs =
    Obs.Span.with_ ~args:[ ("vectors", string_of_int n) ] "serve.eval" (fun () ->
        eval_engine t ~on_pool:(on_pool engine ~rows:n) engine batch)
  in
  let eval_ns = Int64.sub (Obs.Clock.monotonic ()) t0 in
  Runtime.Histogram.observe t.eval_latency (Int64.to_float eval_ns *. 1e-9);
  Metrics.incr ~by:n t.c.vectors;
  Stream { outputs; cache_hit; eval_ns }

(* The fast path: a program text the tenant's cache has served before is
   found by its digest, so it is neither parsed nor keyed again
   ([Cache.evaluator_of_text]). Only the slow path opens [serve.parse];
   [serve.compile]'s [text_hit] arg says which path a traced request
   took. *)
let process t ~tenant ~program ~batch =
  admitted t ~batch (fun n ->
      let width = Wire.matrix_width batch in
      let check_arity n_in =
        if n > 0 && width <> n_in then
          raise
            (Reject
               ( Wire.Arity_mismatch,
                 Printf.sprintf "batch width %d, program has %d inputs" width n_in ))
      in
      let parse () =
        let spec = Obs.Span.with_ "serve.parse" (fun () -> parse_program program) in
        check_arity spec.Logic.Pla_io.n_in;
        spec.Logic.Pla_io.on_set
      in
      let args cache =
        if Obs.Span.enabled () then
          [ ("text_hit", string_of_bool (Cache.text_cached cache program)) ]
        else []
      in
      compile_and_eval t ~tenant ~batch ~n ~args (fun cache ->
          Cache.evaluator_of_text cache ~text:program ~check_arity ~parse))

let process_classify t ~tenant ~model ~batch =
  admitted t ~batch (fun n ->
      let mapped = lookup_model model in
      let n_features = mapped.Classify.Map.model.Classify.Model.n_features in
      if n > 0 && Wire.matrix_width batch <> n_features then
        raise
          (Reject
             ( Wire.Arity_mismatch,
               Printf.sprintf "batch width %d, model has %d features"
                 (Wire.matrix_width batch) n_features ));
      compile_and_eval t ~tenant ~batch ~n (fun cache ->
          Cache.evaluator cache mapped.Classify.Map.cover))

(* ------------------------------------------------------------------ *)
(* Sessions.                                                          *)

let write_reply t oc = function
  | One msg ->
    (match msg with
    | Wire.Error_response _ -> Metrics.incr t.c.request_errors
    | _ -> ());
    Obs.Span.with_ "serve.encode" (fun () -> Wire.write_message oc msg)
  | Stream { outputs; cache_hit; eval_ns } ->
    (* every chunk frame is buffered; [write_message] flushes the reply
       once, with its [Eval_done] *)
    Obs.Span.with_ "serve.encode" (fun () ->
        Wire.write_result_chunks oc ~chunk:t.cfg.chunk_vectors outputs;
        Wire.write_message oc
          (Wire.Eval_done { total = Wire.matrix_rows outputs; cache_hit; eval_ns }));
    Metrics.incr t.c.responses_ok

let serve_session t ic oc =
  Metrics.incr t.c.sessions;
  let outcome =
    try
      Obs.Span.with_ "serve.session" (fun () ->
          let rec loop () =
            match
              Obs.Span.with_ "serve.decode" (fun () ->
                  Wire.read_message ~limit:t.cfg.max_frame ic)
            with
            | `Eof -> `Clean
            | `Error e ->
              (* framing is lost; tell the client why, then hang up *)
              Metrics.incr t.c.decode_errors;
              (try
                 Wire.write_message oc
                   (Wire.Error_response
                      { code = Wire.Internal; message = "decode: " ^ Wire.error_to_string e })
               with _ -> ());
              `Decode_error
            | `Msg Wire.Ping ->
              Wire.write_message oc Wire.Pong;
              loop ()
            | `Msg (Wire.Eval_request { tenant; program; batch }) ->
              write_reply t oc (process t ~tenant ~program ~batch);
              loop ()
            | `Msg (Wire.Classify_request { tenant; model; batch }) ->
              write_reply t oc (process_classify t ~tenant ~model ~batch);
              loop ()
            | `Msg other ->
              Metrics.incr t.c.request_errors;
              Wire.write_message oc
                (Wire.Error_response
                   {
                     code = Wire.Internal;
                     message = "unexpected client message: " ^ Wire.tag_name other;
                   });
              loop ()
          in
          loop ())
    with _ ->
      (* disconnect mid-stream (EPIPE surfaces as Sys_error) or any other
         session-fatal surprise: this session only *)
      `Disconnected
  in
  (match outcome with
  | `Clean -> ()
  | `Decode_error | `Disconnected -> Metrics.incr t.c.session_errors);
  Metrics.incr t.c.sessions_ended

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                         *)

let stop t =
  Atomic.set t.stop_flag true;
  Admission.close t.admission;
  Runtime.Pool.drain t.pool

let request_stop t =
  (* Runs from SIGINT/SIGTERM handlers, which OCaml executes at a safe
     point in an {e arbitrary} thread — possibly one already holding
     the admission lock, so taking any mutex here (Admission.close)
     could self-deadlock. Only flip the atomic flag and poke the
     listener; [stop], which the caller runs once the accept loop
     returns, closes admission and drains the pool. *)
  Atomic.set t.stop_flag true;
  (* wake a blocked [accept] by connecting to ourselves; harmless if the
     listener is already gone *)
  match t.sock_path with
  | None -> ()
  | Some path -> (
    try
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path) with _ -> ());
      Unix.close fd
    with _ -> ())

let session_thread t fd =
  (* Separate descriptors per direction so the two channels can be
     closed independently (closing a shared fd twice races with fd
     reuse in other threads). *)
  let out_fd = Unix.dup fd in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr out_fd in
  serve_session t ic oc;
  close_out_noerr oc;
  close_in_noerr ic

let run_unix t ~sock_path =
  (try Unix.unlink sock_path with Unix.Unix_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX sock_path);
  Unix.listen listener 64;
  t.sock_path <- Some sock_path;
  Fun.protect
    ~finally:(fun () ->
      t.sock_path <- None;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      (try Unix.unlink sock_path with Unix.Unix_error _ -> ()))
    (fun () ->
      let rec accept_loop () =
        if Atomic.get t.stop_flag then ()
        else
          match Unix.accept listener with
          | fd, _ ->
            if Atomic.get t.stop_flag then (try Unix.close fd with Unix.Unix_error _ -> ())
            else ignore (Thread.create (fun () -> session_thread t fd) () : Thread.t);
            accept_loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
            (* listener closed under us during shutdown *)
            ()
          | exception e -> if Atomic.get t.stop_flag then () else raise e
      in
      accept_loop ())
