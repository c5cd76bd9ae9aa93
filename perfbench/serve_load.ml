(* The serve workloads. The end-to-end numbers come from a real
   [cnfet_tool serve -j 1] daemon driven closed-loop over one Unix-socket
   connection: one connection because two client threads in one OCaml
   process would measure the client's runtime lock, [-j 1] so the
   daemon's pool is a single domain. The per-layer numbers come from
   replaying the identical request stream in-process through the public
   functions [Serve.Server.process] composes, each call under its own
   span. *)

module Wire = Serve.Wire
module Cache = Runtime.Cache
module Rng = Util.Rng
open Measure

type program = { text : string; oracle : Cnfet.Pla.t; n_in : int }

type request = {
  frame : string;  (** the encoded [Eval_request] *)
  expected : Wire.matrix;  (** [Pla.eval] of every row, packed like a reply *)
}

let program_of_cover cover =
  let n_in = Logic.Cover.num_inputs cover and n_out = Logic.Cover.num_outputs cover in
  {
    text = Logic.Pla_io.to_string ~on_set:cover ~dc_set:(Logic.Cover.empty ~n_in ~n_out) ();
    oracle = Cnfet.Pla.of_cover cover;
    n_in;
  }

let programs rng = function
  | Spec.Generators ->
    Mcnc.Generators.all
    |> List.filter_map (fun (_, c) ->
           if Logic.Cover.num_inputs c <= 8 then Some (program_of_cover c) else None)
    |> Array.of_list
  | Spec.Synthetic { count; profile } ->
    Array.init count (fun _ ->
        program_of_cover (Mcnc.Synthetic.with_profile rng profile).Mcnc.Synthetic.minimized)

let request ~tenant prog vectors =
  let outs = Array.map (Cnfet.Pla.eval prog.oracle) vectors in
  let batch = Wire.matrix_of_vectors vectors in
  {
    frame = Wire.encode (Wire.Eval_request { tenant; program = prog.text; batch });
    expected =
      Wire.matrix_init ~rows:(Array.length vectors) ~width:(Cnfet.Pla.num_outputs prog.oracle)
        (fun r o -> outs.(r).(o));
  }

let tenant_name i = Printf.sprintf "tenant-%d" i

(* Everything a run sends, built before anything is timed. Stream
   position [k] is [pool.(k mod size)]: the warm-up sends [pairs] and
   positions [0, warm), the timed window continues from [warm]. *)
type inputs = { pairs : request array; pool : request array; warm : int }

let inputs ~seed (s : Spec.serve) =
  let rng = Rng.create seed in
  let progs = programs (Rng.split rng) s.programs in
  let req_rng = Rng.split rng in
  let pairs =
    if s.warm_all_pairs then
      Array.concat
        (List.init s.tenants (fun t ->
             Array.map
               (fun p -> request ~tenant:(tenant_name t) p [| Array.make p.n_in false |])
               progs))
    else [||]
  in
  (* Every program appears equally often, so the seed changes the
     vectors, tenants and order but not the program mix: the programs'
     costs differ by an order of magnitude. *)
  let pool =
    Array.init (s.requests_per_program * Array.length progs) (fun i ->
        let prog = progs.(i mod Array.length progs) in
        let tenant = tenant_name (Rng.int req_rng s.tenants) in
        request ~tenant prog
          (Array.init s.batch (fun _ -> Array.init prog.n_in (fun _ -> Rng.bool req_rng))))
  in
  Rng.shuffle req_rng pool;
  { pairs; pool; warm = s.warmup_requests }

let at inp k = inp.pool.(k mod Array.length inp.pool)
let warmup inp = Array.append inp.pairs (Array.init inp.warm (at inp))
let timed inp k = at inp (inp.warm + k)

(* ------------------------------------------------------------------ *)
(* Client *)

type reply = {
  chunks : (int * Wire.matrix) list;
  total : int;
  cache_hit : bool;
  eval_ns : int64;
}

type outcome = Done of reply | Refused of string

let read_reply ic =
  let rec go acc =
    match Wire.read_message ic with
    | `Msg (Wire.Result_chunk { first; outputs }) -> go ((first, outputs) :: acc)
    | `Msg (Wire.Eval_done { total; cache_hit; eval_ns }) ->
      Done { chunks = List.rev acc; total; cache_hit; eval_ns }
    | `Msg (Wire.Overloaded _) -> Refused "overloaded"
    | `Msg (Wire.Error_response { message; _ }) -> Refused message
    | `Msg m -> failwith ("unexpected reply " ^ Wire.tag_name m)
    | `Eof -> failwith "the daemon closed the connection"
    | `Error e -> failwith ("reply: " ^ Wire.error_to_string e)
  in
  go []

type conn = { ic : in_channel; oc : out_channel }

let call conn r =
  output_string conn.oc r.frame;
  flush conn.oc;
  read_reply conn.ic

(* Correct when the chunks tile the batch in order and every row equals
   the oracle's. *)
let correct r = function
  | Refused _ -> false
  | Done d ->
    let rows = Wire.matrix_rows r.expected in
    let rec tiles next = function
      | [] -> next = rows
      | (first, m) :: rest ->
        let len = Wire.matrix_rows m in
        first = next && len > 0
        && first + len <= rows
        && Wire.matrix_width m = Wire.matrix_width r.expected
        && String.equal (Wire.matrix_sub r.expected ~first ~len).Wire.m_data m.Wire.m_data
        && tiles (first + len) rest
    in
    d.total = rows && tiles 0 d.chunks

(* Flip output bit (0, 0) of the first chunk: the self-test's planted
   wrong row. *)
let plant_wrong_row = function
  | Done ({ chunks = (first, m) :: rest; _ } as d) ->
    let flipped =
      Wire.matrix_init ~rows:(Wire.matrix_rows m) ~width:(Wire.matrix_width m) (fun r o ->
          (Wire.matrix_row m r).(o) <> (r = 0 && o = 0))
    in
    Done { d with chunks = (first, flipped) :: rest }
  | o -> o

(* ------------------------------------------------------------------ *)
(* Daemon *)

(* Child processes still running: daemons, and under --workload all the
   per-workload perfbench processes. At exit each gets SIGTERM, which
   lets a perfbench child stop its own daemon, and is waited for. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

type daemon = { pid : int; conn : conn }

let connect ~pid ~sock =
  let deadline = now () +. 30. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.close fd;
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        live := List.filter (( <> ) pid) !live;
        failwith "the serve daemon exited before listening"
      end;
      if now () > deadline then failwith "the serve daemon did not listen within 30 s";
      Unix.sleepf 0.0002;
      go ()
  in
  let fd = go () in
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let stop d =
  close_out_noerr d.conn.oc;
  Unix.kill d.pid Sys.sigterm;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Spawn a daemon, connect, and send the warm-up requests: the set-up
   a user pays before the first timed request. *)
let setup ~tool ~sock warm =
  let t0 = now () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process tool
          [| tool; "serve"; "--sock"; sock; "-j"; "1" |]
          null null Unix.stderr)
  in
  live := pid :: !live;
  let d = { pid; conn = connect ~pid ~sock } in
  Array.iter
    (fun r -> if not (correct r (call d.conn r)) then failwith "a warm-up request failed")
    warm;
  (d, now () -. t0)

(* ------------------------------------------------------------------ *)
(* In-process replay *)

let cfg = Serve.Server.default_config

(* One request through the calls [Server.process] composes. The compile
   span is named by the lookup's outcome, which an untraced pass over
   the same stream has already recorded ([expect_hit]). The key probe
   is timed on its own: it is a sub-term of the lookup, not a layer. *)
let replay_request tenants ~expect_hit r =
  let span = Obs.Span.with_ in
  let tenant, program, batch =
    match span "perfbench.wire.decode" (fun () -> Wire.decode r.frame) with
    | Ok (Wire.Eval_request { tenant; program; batch }, _) -> (tenant, program, batch)
    | _ -> failwith "replay: a request frame did not decode"
  in
  let spec = span "perfbench.pla_io.parse" (fun () -> Logic.Pla_io.parse program) in
  let cover = spec.Logic.Pla_io.on_set in
  let tcache = span "perfbench.tenants.lookup" (fun () -> Serve.Tenants.cache tenants tenant) in
  ignore (span "perfbench.cache.key" (fun () -> Cache.key_of_cover cover) : Cache.key);
  let compiled, hit =
    span
      (if expect_hit then "perfbench.cache.lookup_hit" else "perfbench.cache.compile_miss")
      (fun () -> Cache.compile_hit tcache cover)
  in
  let n = Wire.matrix_rows batch in
  let lanes = Cache.lanes_per_word in
  let n_full = n / lanes * lanes in
  (* one span per phase, not per 63-vector block: per-block spans would
     cost more than a gather on serve-bulk *)
  let gathered =
    span "perfbench.wire.gather" (fun () ->
        Array.init (n / lanes) (fun b -> Wire.matrix_block batch ~first:(b * lanes) ~lanes))
  in
  let blocks =
    span "perfbench.cache.eval_block" (fun () ->
        Array.map (fun words -> Cache.eval_block compiled { Cache.words; lanes }) gathered)
  in
  let tail =
    span "perfbench.cache.eval_scalar" (fun () ->
        Array.init (n - n_full) (fun i -> Cache.eval compiled (Wire.matrix_row batch (n_full + i))))
  in
  let outputs =
    span "perfbench.wire.assemble" (fun () ->
        Wire.matrix_init ~rows:n ~width:(Cnfet.Pla.num_outputs (Cache.pla compiled)) (fun row o ->
            if row < n_full then blocks.(row / lanes).(o) land (1 lsl (row mod lanes)) <> 0
            else tail.(row - n_full).(o)))
  in
  span "perfbench.wire.encode" (fun () ->
      let first = ref 0 in
      while !first < n do
        let len = min cfg.chunk_vectors (n - !first) in
        let chunk = Wire.matrix_sub outputs ~first:!first ~len in
        ignore (Wire.encode (Wire.Result_chunk { first = !first; outputs = chunk }) : string);
        first := !first + len
      done;
      ignore (Wire.encode (Wire.Eval_done { total = n; cache_hit = hit; eval_ns = 0L }) : string));
  (hit, String.equal outputs.Wire.m_data r.expected.Wire.m_data)

type replay = {
  hits : bool array;  (** per timed request *)
  cpu_s : float;  (** CPU seconds of the timed requests *)
  evictions : int;  (** [Tenants.entry_evictions] during the timed requests *)
  mismatches : int;
}

(* Replay the warm-up untimed, then [n] timed requests under [around]. *)
let replay inp ~n ~expect_hit ~around =
  let tenants = Serve.Tenants.create ~max_tenants:cfg.max_tenants ~quota:cfg.tenant_quota () in
  Array.iter (fun r -> ignore (replay_request tenants ~expect_hit:false r)) (warmup inp);
  let ev0 = Serve.Tenants.entry_evictions tenants in
  around (fun () ->
      let c0 = self_cpu_s () in
      let hits = Array.make n false and bad = ref 0 in
      for k = 0 to n - 1 do
        let hit, ok = replay_request tenants ~expect_hit:(expect_hit k) (timed inp k) in
        hits.(k) <- hit;
        if not ok then incr bad
      done;
      {
        hits;
        cpu_s = self_cpu_s () -. c0;
        evictions = Serve.Tenants.entry_evictions tenants - ev0;
        mismatches = !bad;
      })

(* The replayed layers, in [Server.process] order; their sum plus
   [replay.residual_us] is the daemon's CPU per request. *)
let terms =
  [
    "wire.decode";
    "pla_io.parse";
    "tenants.lookup";
    "cache.lookup_hit";
    "cache.compile_miss";
    "wire.gather";
    "cache.eval_block";
    "cache.eval_scalar";
    "wire.assemble";
    "wire.encode";
  ]

type record = { req : request; lat_s : float; outcome : outcome }

(* The replay covers a prefix of the timed stream, so traced runs stay short. *)
let replay_max = 2000

let run ~tool ~seed ~seconds ~trace ~plant ~tail ~profile_out (s : Spec.serve) =
  let inp = inputs ~seed s in
  let warm = warmup inp in
  let sock i = Printf.sprintf "perfbench/_out/serve-%d-%d.sock" (Unix.getpid ()) i in
  let setup_s =
    Array.init setups_per_run (fun i ->
        let d, dt = setup ~tool ~sock:(sock i) warm in
        stop d;
        dt)
  in
  (* the measured daemon is set up once more, exactly like the others *)
  let d, _ = setup ~tool ~sock:(sock setups_per_run) warm in
  let slices = max 10 (truncate seconds) in
  let recs = ref [] and k = ref 0 and slice = ref 1 in
  let t_start = now () in
  let marks = ref [ { at = t_start; cpu = proc_cpu_s d.pid; count = 0 } ] in
  let mark () = marks := { at = now (); cpu = proc_cpu_s d.pid; count = !k } :: !marks in
  let deadline = t_start +. seconds in
  while now () < deadline do
    let req = timed inp !k in
    let t0 = now () in
    let outcome = call d.conn req in
    recs := { req; lat_s = now () -. t0; outcome } :: !recs;
    incr k;
    if now () >= t_start +. (seconds *. float !slice /. float slices) then begin
      mark ();
      incr slice
    end
  done;
  if (List.hd !marks).count < !k then mark ();
  let marks = List.rev !marks in
  let rss = peak_rss_mb d.pid in
  stop d;
  let recs = Array.of_list (List.rev !recs) in
  let n = Array.length recs in
  if plant then recs.(0) <- { (recs.(0)) with outcome = plant_wrong_row recs.(0).outcome };
  let ok_each = Array.map (fun r -> correct r.req r.outcome) recs in
  let ok = Array.fold_left (fun a b -> if b then a + 1 else a) 0 ok_each in
  let items_per_s, cpu_ms_per_item, per_slice = slice_rates marks ~ok:ok_each in
  let done_ =
    List.filter_map
      (fun r -> match r.outcome with Done d -> Some (r, d) | Refused _ -> None)
      (Array.to_list recs)
  in
  let lat_ms = Array.of_list (List.map (fun (r, _) -> r.lat_s *. 1e3) done_) in
  let range f =
    Array.fold_left (fun (lo, hi) x -> (min lo (f x), max hi (f x))) (infinity, 0.) per_slice
  in
  let (r_lo, r_hi), (c_lo, c_hi) = (range fst, range snd) in
  Printf.eprintf "  %d requests, %d beyond the p%g tail; %d slices: %.0f-%.0f items/s, %s\n%!" n
    (beyond tail lat_ms) tail (Array.length per_slice) r_lo r_hi
    (Printf.sprintf "%.4f-%.4f ms cpu" c_lo c_hi);
  let e2e =
    [
      metric "items_per_s" "1/s" items_per_s;
      metric "cpu_ms_per_item" "ms" cpu_ms_per_item;
      metric "latency_p50_ms" "ms" (median lat_ms);
      metric "latency_tail_ms" "ms" (percentile tail lat_ms);
      metric "setup_s" "s" (median setup_s);
      metric "peak_rss_mb" "MB" rss;
      metric "ok_share" "share" (float ok /. float n);
    ]
  in
  let layers, replay_ok =
    if not trace then ([], true)
    else begin
      let eval_us d = Int64.to_float d.eval_ns /. 1e3 in
      let p50 f = median (Array.of_list (List.map f done_)) in
      let hits = List.length (List.filter (fun (_, d) -> d.cache_hit) done_) in
      let n_replay = min n replay_max in
      let plain = replay inp ~n:n_replay ~expect_hit:(fun _ -> false) ~around:(fun f -> f ()) in
      let tr, sum_of =
        replay inp ~n:n_replay ~expect_hit:(Array.get plain.hits) ~around:(traced ~profile_out)
      in
      let us name = sum_of ("perfbench." ^ name) *. 1e6 /. float n_replay in
      let sum = List.fold_left (fun a t -> a +. us t) 0. terms in
      let cpu_us = cpu_ms_per_item *. 1e3 in
      let residual = cpu_us -. sum in
      let row name v note = Printf.eprintf "    %-22s %10.2f%s\n" name v note in
      Printf.eprintf "  layer accounting, us per request (replay of the first %d):\n" n_replay;
      List.iter (fun t -> row t (us t) "") terms;
      row "sum of layers" sum "";
      row "replay.residual" residual "";
      row "daemon cpu" cpu_us "  (untraced cpu_ms_per_item)";
      row "cache.key" (us "cache.key") "  (probe inside the lookup terms)";
      (* The daemon ran before the replay, so machine noise between the
         two can break the books; a broken residual is withheld (0) and
         flagged, never published. *)
      let accounting_ok = residual >= 0. && residual <= sum in
      if not accounting_ok then
        Printf.eprintf "  ACCOUNTING ERROR: the residual %.2f us is %s; withheld\n%!" residual
          (if residual < 0. then "negative" else "larger than the layers it completes");
      let layers =
        List.map (fun t -> metric (t ^ "_us") "us" (us t)) terms
        @ [
            metric "cache.key_us" "us" (us "cache.key");
            metric "tenants.evictions_per_1k" "count" (float tr.evictions *. 1e3 /. float n_replay);
            metric "replay.residual_us" "us" (if accounting_ok then residual else 0.);
            metric "accounting.ok" "flag" (if accounting_ok then 1. else 0.);
            metric "cache.hit_ratio" "share" (float hits /. float (List.length done_));
            metric "server.eval_us_p50" "us" (p50 (fun (_, d) -> eval_us d));
            metric "transport_us_p50" "us" (p50 (fun (r, d) -> (r.lat_s *. 1e6) -. eval_us d));
            metric "trace.overhead_share" "share" ((tr.cpu_s /. plain.cpu_s) -. 1.);
          ]
      in
      (layers, plain.mismatches = 0 && tr.mismatches = 0 && tr.hits = plain.hits)
    end
  in
  if not replay_ok then
    Printf.eprintf "  REPLAY MISMATCH: the replay disagreed with the oracle\n%!";
  { correct = ok = n && replay_ok; attempted = n; failed = n - ok; e2e; layers }
