(** The evaluation service daemon.

    Clients speak {!Wire} over either a Unix-domain socket (one session
    thread per connection) or a single stdin/stdout pipe session (tests,
    CI). A session submits PLA programs and input batches; the server
    admits the request through {!Admission} (shedding with
    {!Wire.Overloaded} when saturated), compiles through the tenant's
    quota-bounded {!Runtime.Cache} ({!Tenants}), evaluates on the shared
    {!Runtime.Pool}, and streams {!Wire.Result_chunk} frames back.

    Sessions are supervised in the sense that no client can take the
    daemon down: oversized frames, garbage bytes, mid-stream
    disconnects and poison programs all terminate or degrade only their
    own session, with the failure metered. Every stage is wrapped in an
    {!Obs} span ([serve.session], [serve.decode], [serve.admit],
    [serve.compile], [serve.parse], [serve.eval], [serve.encode]).

    A program text the tenant has sent before takes the fast path: its
    digest finds the compiled entry in the tenant's text index
    ({!Runtime.Cache.evaluator_of_text}), so it is neither parsed nor
    keyed again. Only the slow path opens [serve.parse], nested in
    [serve.compile], whose [text_hit] arg records whether the index held
    the text when the request arrived. *)

type config = {
  jobs : int option;  (** evaluation pool size; [None] = cores - 1 *)
  queue_limit : int;  (** admission wait-queue bound *)
  max_inflight : int;  (** concurrently evaluating requests *)
  max_tenants : int;  (** tenant caches kept before tenant-LRU eviction *)
  tenant_quota : int;  (** compiled programs per tenant cache *)
  max_frame : int;  (** payload bytes; larger frames end the session *)
  chunk_vectors : int;  (** result vectors per {!Wire.Result_chunk} *)
  max_batch : int;  (** vectors per request; more is [Batch_too_large] *)
}

val default_config : config
(** queue 64, inflight 8, 16 tenants × 32 programs, 4 MiB frames,
    512-vector chunks, 65536-vector batches. *)

type t

val create : ?metrics:Runtime.Metrics.t -> config -> t
(** Builds the pool, admission controller and tenant table, all
    recording into [metrics] (a private registry when omitted). The
    server owns its pool; {!stop} drains it. *)

val config : t -> config

val admission : t -> Admission.t

val tenants : t -> Tenants.t

val pool : t -> Runtime.Pool.t

(** {2 Serving} *)

val pool_crossover : int
(** Work (see {!work}) from which a request's blocks go to the pool;
    below it the pool's per-request hand-off would cost more than the
    evaluation. Measured by [bench/main.exe serve_crossover]. *)

val work : Runtime.Cache.engine -> rows:int -> int
(** A request's evaluation cost in crosspoint visits: 63-vector blocks
    times the compiled entry's non-[Drop] crosspoints, or, uncompiled,
    vectors times all of the PLA's crosspoints. *)

val on_pool : Runtime.Cache.engine -> rows:int -> bool
(** [work engine ~rows >= pool_crossover]: the routing rule
    {!serve_session} applies to every request. *)

val eval_engine : t -> on_pool:bool -> Runtime.Cache.engine -> Wire.matrix -> Wire.matrix
(** Evaluate a batch on an engine, inline or one pool item per block
    (per vector, uncompiled). Bit-identical to [Pla.eval] on every row
    either way. *)

val serve_session : t -> in_channel -> out_channel -> unit
(** Run one client session until EOF, a framing error, or disconnect.
    Never raises: session-fatal failures are metered
    ([serve.session_errors], [serve.decode_errors]) and end only this
    session. May be called from any number of threads concurrently. *)

val run_unix : t -> sock_path:string -> unit
(** Bind, listen and accept on a Unix-domain socket, one session thread
    per connection. Returns after {!request_stop} (the socket file is
    removed). *)

val request_stop : t -> unit
(** Ask a running {!run_unix} loop to exit: sets the stop flag and
    wakes the accept loop. Takes no locks, so it is safe to call from a
    signal handler (which OCaml may run on a thread that already holds
    one); the caller completes shutdown — shedding queued requests and
    draining the pool — by calling {!stop} once {!run_unix} returns. *)

val stop : t -> unit
(** Close admission (queued requests shed) and gracefully drain the
    evaluation pool — inflight work finishes first. Idempotent. *)

(** {2 Introspection} *)

type stats = {
  sessions_active : int;
  sessions_total : int;
  requests : int;
  responses_ok : int;
  request_errors : int;  (** requests answered with [Error_response] *)
  session_errors : int;  (** sessions ended by decode failure/disconnect *)
  vectors_evaluated : int;
  fallback_evals : int;  (** served uncompiled after repeated cache rot *)
}

val stats : t -> stats
(** A view over the registry's [serve.*] counters (active sessions are
    [serve.sessions] minus [serve.sessions_ended]), so two servers
    sharing one registry share their counts, and {!Runtime.Metrics.reset}
    zeroes them. *)
