(* A fixed-size worker pool on OCaml 5 domains.

   Tasks are closures pushed onto a FIFO queue guarded by a mutex and a
   condition variable; [jobs] worker domains loop popping tasks until
   shutdown. Each [submit] returns a future; [await] blocks until the
   task ran and re-raises its exception (with the worker-side backtrace)
   if it failed, so errors surface at the join point exactly as they
   would have sequentially.

   Crash isolation: a queued task carries both its body and a [poison]
   callback that fails its future. The body already converts ordinary
   exceptions into the future's [Failed] state; anything that escapes it
   anyway — an injected worker crash ([Fault.Inject]), an asynchronous
   exception, a bug in the wrapping itself — is treated as domain
   poisoning: the future is failed (so joiners never hang), the crash is
   counted, a replacement domain is spawned while the poisoned one exits,
   and the queue keeps draining. [shutdown] joins every domain ever
   spawned, including replacements and the corpses they replaced, so it
   stays safe no matter how many workers died mid-task.

   When [jobs = 1] and the machine is single-core this degenerates to a
   slightly slower sequential loop — the pool never reorders work, so
   results are deterministic regardless of the domain count (fan-in is
   always by submission index, see {!Batch}). *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_lock : Mutex.t;
  f_cond : Condition.t;
  mutable state : 'a state;
}

(* What actually sits in the queue: [index] is the submission number (the
   chaos engine's deterministic coordinate), [poison] fails the future if
   the body never got to set it. *)
type task = {
  index : int;
  run : unit -> unit;
  poison : exn -> Printexc.raw_backtrace -> unit;
}

(* Per-task metric handles, resolved once at [create] so submitting and
   running a task never looks a name up under the registry lock. *)
type instruments = {
  tasks : Metrics.counter;
  queue_depth : Metrics.gauge;
  task_latency : Histogram.t;
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;  (* broadcast when the last domain has been joined *)
  queue : task Queue.t;
  mutable stopping : bool;
  mutable joining : bool;  (* some stopper currently owns the domain join *)
  mutable stopped : bool;  (* every domain ever spawned has been joined *)
  mutable domains : unit Domain.t list;  (* every domain ever spawned *)
  mutable next_index : int;
  mutable crashes : int;
  jobs : int;
  metrics : Metrics.t option;
  instruments : instruments option;
}

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let jobs t = t.jobs

let crashes t =
  Mutex.lock t.lock;
  let n = t.crashes in
  Mutex.unlock t.lock;
  n

exception Worker_poisoned of exn

let rec worker pool i =
  let busy_gauge =
    Option.map (fun m -> Metrics.gauge m (Printf.sprintf "pool.domain%d.busy_s" i)) pool.metrics
  in
  let busy = ref 0.0 in
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.stopping do
      Condition.wait pool.nonempty pool.lock
    done;
    if Queue.is_empty pool.queue && pool.stopping then Mutex.unlock pool.lock
    else begin
      let task = Queue.pop pool.queue in
      (match pool.instruments with
      | Some ins -> Metrics.set_gauge ins.queue_depth (float_of_int (Queue.length pool.queue))
      | None -> ());
      Mutex.unlock pool.lock;
      let t0 = Unix.gettimeofday () in
      (try run_task task
       with Worker_poisoned cause ->
         (* The domain is considered unreliable after a crash: count it,
            spawn a fresh replacement and let this one exit. The queue
            keeps draining on the replacement. Accounting happens before
            the future is failed, so a joiner that observes the failure
            already sees the crash counted. *)
         crash pool i cause;
         task.poison cause (Printexc.get_callstack 0);
         raise Exit);
      busy := !busy +. (Unix.gettimeofday () -. t0);
      Option.iter (fun g -> Metrics.set_gauge g !busy) busy_gauge;
      loop ()
    end
  and run_task task =
    match Fault.Inject.tap (Fault.Inject.Pool_task { index = task.index }) with
    | Fault.Inject.No_fault -> run_isolated task
    | Fault.Inject.Stall s ->
      if s > 0.0 then Unix.sleepf s;
      run_isolated task
    | Fault.Inject.Raise e ->
      (* The task fails alone, exactly as if its body had raised. *)
      task.poison e (Printexc.get_callstack 0)
    | Fault.Inject.Crash_worker e -> raise (Worker_poisoned e)
    | Fault.Inject.Corrupt -> run_isolated task
  and run_isolated task =
    (* [run] converts the body's exceptions into the future itself;
       anything escaping it is domain poisoning, not a task failure. *)
    match task.run () with
    | () -> ()
    | exception e -> raise (Worker_poisoned e)
  in
  try loop () with Exit -> ()

and crash pool i _cause =
  Mutex.lock pool.lock;
  pool.crashes <- pool.crashes + 1;
  (match pool.metrics with
  | Some m ->
    Metrics.incr (Metrics.counter m "pool.worker_crashes");
    Metrics.incr (Metrics.counter m "pool.respawns")
  | None -> ());
  if not pool.stopping then
    pool.domains <- Domain.spawn (fun () -> worker pool i) :: pool.domains;
  Mutex.unlock pool.lock;
  if Obs.Span.enabled () then Obs.Span.instant ~args:[ ("domain", string_of_int i) ] "pool.worker_crash"

let create ?metrics ?jobs () =
  let jobs = match jobs with Some n -> max 1 n | None -> default_jobs () in
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      joining = false;
      stopped = false;
      domains = [];
      next_index = 0;
      crashes = 0;
      jobs;
      metrics;
      instruments =
        Option.map
          (fun m ->
            {
              tasks = Metrics.counter m "pool.tasks";
              queue_depth = Metrics.gauge m "pool.queue_depth";
              task_latency = Metrics.histogram m "pool.task_latency_s";
            })
          metrics;
    }
  in
  pool.domains <- List.init jobs (fun i -> Domain.spawn (fun () -> worker pool i));
  pool

let submit pool f =
  let fut = { f_lock = Mutex.create (); f_cond = Condition.create (); state = Pending } in
  let resolve outcome =
    Mutex.lock fut.f_lock;
    (* First writer wins: a poison racing a completed body is dropped. *)
    (match fut.state with
    | Pending ->
      fut.state <- outcome;
      Condition.broadcast fut.f_cond
    | Done _ | Failed _ -> ());
    Mutex.unlock fut.f_lock
  in
  let run () =
    let outcome =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    resolve outcome
  in
  let run =
    match pool.instruments with
    | None -> run
    | Some ins -> fun () -> Histogram.time ins.task_latency run
  in
  let poison e bt = resolve (Failed (e, bt)) in
  Mutex.lock pool.lock;
  if pool.stopping then begin
    Mutex.unlock pool.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  let index = pool.next_index in
  pool.next_index <- index + 1;
  Queue.push { index; run; poison } pool.queue;
  (match pool.instruments with
  | Some ins ->
    Metrics.incr ins.tasks;
    Metrics.set_gauge ins.queue_depth (float_of_int (Queue.length pool.queue))
  | None -> ());
  Condition.signal pool.nonempty;
  Mutex.unlock pool.lock;
  fut

let is_pending fut = match fut.state with Pending -> true | Done _ | Failed _ -> false

let await_result fut =
  Mutex.lock fut.f_lock;
  while is_pending fut do
    Condition.wait fut.f_cond fut.f_lock
  done;
  let st = fut.state in
  Mutex.unlock fut.f_lock;
  match st with
  | Done v -> Ok v
  | Failed (e, bt) -> Error (e, bt)
  | Pending -> assert false

let await fut =
  match await_result fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let run_all pool thunks =
  let futures = Array.map (fun f -> submit pool f) thunks in
  (* Drain every future before raising anything: one failing task must not
     abandon its already-queued siblings (their exceptions would be lost
     and their results discarded half-computed). The failure re-raised is
     the smallest submission index — what a sequential run would have hit
     first — regardless of wall-clock completion order. *)
  let outcomes = Array.map await_result futures in
  let first_failure = ref None in
  Array.iter
    (fun o ->
      match (o, !first_failure) with
      | Error eb, None -> first_failure := Some eb
      | _ -> ())
    outcomes;
  match !first_failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.map (function Ok v -> v | Error _ -> assert false) outcomes

exception Shutdown

let () =
  Printexc.register_printer (function
    | Shutdown -> Some "Pool.Shutdown (queued task discarded by shutdown)"
    | _ -> None)

(* Single stop path shared by [drain] and [shutdown]. Safe under any
   number of concurrent callers (a signal handler's [shutdown]
   racing a normal [drain], say): the first caller to get here owns the
   domain join; everyone else blocks on [idle] until the join completes,
   so every stopper returns to a fully-stopped pool. [discard_queued]
   fails queued-but-unstarted tasks with {!Shutdown} instead of running
   them — their joiners unblock immediately rather than waiting on work
   that will never start. *)
let stop ~discard_queued pool =
  Mutex.lock pool.lock;
  if not pool.stopping then begin
    pool.stopping <- true;
    Condition.broadcast pool.nonempty
  end;
  if discard_queued then begin
    let bt = Printexc.get_callstack 0 in
    while not (Queue.is_empty pool.queue) do
      (Queue.pop pool.queue).poison Shutdown bt
    done
  end;
  if pool.joining || pool.stopped then begin
    while not pool.stopped do
      Condition.wait pool.idle pool.lock
    done;
    Mutex.unlock pool.lock
  end
  else begin
    pool.joining <- true;
    (* A crashing worker may have spawned a replacement after we took the
       list; loop until no new domains appear. Joining an already-exited
       domain returns immediately, so corpses cost nothing. *)
    let rec join_all () =
      match pool.domains with
      | [] ->
        pool.stopped <- true;
        Condition.broadcast pool.idle;
        Mutex.unlock pool.lock
      | ds ->
        pool.domains <- [];
        Mutex.unlock pool.lock;
        List.iter Domain.join ds;
        Mutex.lock pool.lock;
        Condition.broadcast pool.nonempty;
        join_all ()
    in
    join_all ()
  end

let drain pool = stop ~discard_queued:false pool

let shutdown pool = stop ~discard_queued:true pool

let with_pool ?metrics ?jobs f =
  let pool = create ?metrics ?jobs () in
  Fun.protect ~finally:(fun () -> drain pool) (fun () -> f pool)
