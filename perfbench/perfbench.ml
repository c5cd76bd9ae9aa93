(* perfbench: the repository's end-to-end benchmark. Run it through
   perfbench/run.sh, which builds it and pins it to one CPU:

     bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0

   It prints a table of every metric with its unit on stderr and, as the
   last line of stdout, one JSON object {correct, attempted, failed,
   metrics}: the end-to-end metrics with --trace 0, the per-layer
   metrics of a traced replay with --trace 1. It exits 1 on any
   miscompare or digest mismatch. *)

open Measure

(* Every per-layer metric, in output order. A workload reports 0 for
   the layers it never calls. *)
let layer_units =
  List.map (fun t -> (t ^ "_us", "us")) Serve_load.terms
  @ [
      ("cache.key_us", "us");
      ("tenants.evictions_per_1k", "count");
      ("replay.residual_us", "us");
      ("cache.hit_ratio", "share");
      ("server.eval_us_p50", "us");
      ("transport_us_p50", "us");
    ]
  @ List.map (fun (_, m) -> (m, "ms")) Sweep_load.stage_metrics
  @ [ ("stage.glue_ms", "ms"); ("accounting.ok", "flag"); ("trace.overhead_share", "share") ]

let all_layers (r : result) =
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name layer_units) then
        failwith ("unlisted per-layer metric " ^ m.name))
    r.layers;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun m -> m.name = name) r.layers with
      | Some m -> m
      | None -> metric name unit_ 0.)
    layer_units

type options = {
  root : string;
  tool : string;
  seconds : float;
  trace : bool;
  plant : bool;
  digests : string;  (** recorded sweep-pop digests *)
}

let run_workload o ~seed (w : Spec.workload) =
  let profile_out = Printf.sprintf "perfbench/_out/%s-%d.profile.txt" w.name seed in
  match w.kind with
  | Spec.Serve s ->
    Serve_load.run ~tool:o.tool ~seed ~seconds:o.seconds ~trace:o.trace
      ~plant:o.plant ~tail:w.tail_percentile ~profile_out s
  | Spec.Sweep s ->
    Sweep_load.run ~seed ~seconds:o.seconds ~trace:o.trace ~plant:o.plant
      ~tail:w.tail_percentile ~profile_out ~digests:o.digests s

let metrics_of o r = if o.trace then all_layers r else r.e2e

let print_result o r =
  List.iter (fun m -> Printf.eprintf "  %-26s %16.6f %s\n" m.name m.value m.unit_) (metrics_of o r);
  Printf.eprintf "  %s: %d attempted, %d failed\n%!" (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  let open Assess.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool r.correct);
            ("attempted", Number (float r.attempted));
            ("failed", Number (float r.failed));
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obj [ ("value", Number m.value); ("unit", String m.unit_) ]))
                   (metrics_of o r)) );
          ]))

(* ------------------------------------------------------------------ *)
(* Self-test: every workload at a tiny size, both trace modes. *)

let tiny (w : Spec.workload) =
  let kind =
    match w.kind with
    | Spec.Serve s ->
      Spec.Serve
        {
          s with
          programs =
            (match s.programs with
            | Spec.Synthetic p -> Spec.Synthetic { p with count = min p.count 8 }
            | g -> g);
          (* 200 = three full 63-vector blocks and a scalar tail *)
          batch = min s.batch 200;
          requests_per_program = 1;
          warmup_requests = min s.warmup_requests 4;
        }
    | Spec.Sweep _ -> Spec.Sweep { items = 3; warmup_items = 1 }
  in
  { w with kind }

let bench_metrics root key =
  let j =
    match Assess.Json.parse (read_file (Filename.concat root "BENCHMARK.json")) with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e.Assess.Json.msg)
  in
  match Option.bind (Assess.Json.member key j) Assess.Json.to_list with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some l ->
    List.map
      (fun m ->
        match
          ( Option.bind (Assess.Json.member "name" m) Assess.Json.to_str,
            Option.bind (Assess.Json.member "unit" m) Assess.Json.to_str )
        with
        | Some n, Some u -> (n, u)
        | _ -> failwith ("BENCHMARK.json: malformed " ^ key ^ " entry"))
      l

let self_test o (spec : Spec.t) =
  let failures = ref [] in
  let check what ok = if not ok then failures := what :: !failures in
  let emits what expected ms =
    List.iter
      (fun (n, u) ->
        check
          (Printf.sprintf "%s emits %s in %s" what n u)
          (List.exists (fun m -> m.name = n && m.unit_ = u && Float.is_finite m.value) ms))
      expected;
    check (what ^ " emits only listed metrics") (List.length ms = List.length expected)
  in
  let ok_share r = (List.find (fun m -> m.name = "ok_share") r.e2e).value in
  let e2e = bench_metrics o.root "end_to_end" and layers = bench_metrics o.root "per_layer" in
  (* the tiny sweep range gets recorded digests of its own *)
  let digests = "perfbench/_out/self-test-digests.txt" in
  let write_digests lines =
    Out_channel.with_open_text digests (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) ("# self-test" :: lines))
  in
  let o = { o with seconds = 0.2; digests } in
  List.iter
    (fun (w : Spec.workload) ->
      let w = tiny w in
      Printf.eprintf "self-test %s\n%!" w.name;
      let recorded =
        match w.kind with
        | Spec.Sweep s ->
          let l = Sweep_load.digest_line ~seed:1 s in
          write_digests [ l ];
          l
        | Spec.Serve _ -> ""
      in
      let r = run_workload { o with trace = false } ~seed:1 w in
      check (w.name ^ " is correct") r.correct;
      emits w.name e2e r.e2e;
      let r = run_workload { o with trace = true } ~seed:1 w in
      check (w.name ^ " traced is correct") r.correct;
      emits (w.name ^ " traced") layers (all_layers r);
      let r = run_workload { o with plant = true } ~seed:1 w in
      check
        (w.name ^ ": a planted wrong output drops ok_share below 1")
        (ok_share r < 1. && not r.correct);
      match w.kind with
      | Spec.Serve _ -> ()
      | Spec.Sweep s ->
        write_digests [ String.sub recorded 0 (String.length recorded - 1) ^ "x" ];
        let r = run_workload o ~seed:1 w in
        check
          (w.name ^ ": a digest mismatch drops ok_share to 0")
          (ok_share r = 0. && not r.correct);
        write_digests [ Printf.sprintf "1 %d %s" (s.items + 1) (String.make 32 '0') ];
        check
          (w.name ^ ": a digest file without the range fails the run")
          (match run_workload o ~seed:1 w with _ -> false | exception Failure _ -> true))
    spec.workloads;
  match !failures with
  | [] -> prerr_endline "self-test: ok"
  | fs ->
    List.iter (fun f -> prerr_endline ("self-test FAILED: " ^ f)) (List.rev fs);
    exit 1

(* --workload all: each workload in a process of its own, so none sees
   another's heap, high-water mark or GC load. *)
let run_all ~argv (spec : Spec.t) =
  List.fold_left
    (fun ok (w : Spec.workload) ->
      let pid =
        Unix.create_process Sys.executable_name
          (Array.append [| Sys.executable_name; "--workload"; w.name |] argv)
          Unix.stdin Unix.stdout Unix.stderr
      in
      Serve_load.live := pid :: !Serve_load.live;
      let _, status = Unix.waitpid [] pid in
      Serve_load.live := List.filter (( <> ) pid) !Serve_load.live;
      ok && status = Unix.WEXITED 0)
    true spec.workloads

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15 and trace = ref 0 in
  let root = ref "." and tool = ref "" and self = ref false and record = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME a workload of perfbench/spec.json, or all");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--seconds", Arg.Set_int seconds, "N length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end, or per-layer metrics of a traced replay");
      ("--root", Arg.Set_string root, "DIR repository checkout (default .)");
      ("--tool", Arg.Set_string tool, "PATH cnfet_tool executable (default: the dune build's)");
      ("--self-test", Arg.Set self, " run every workload at a tiny size and check what it reports");
      ("--record-digests", Arg.Set_string record, "A-B print sweep-pop digests for seeds A..B");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench [--workload NAME --seed N --seconds N --trace 0|1] [--self-test]";
  let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
  let tool =
    abs (if !tool = "" then Filename.concat !root "_build/default/bin/cnfet_tool.exe" else !tool)
  in
  let root = abs !root in
  Sys.chdir root;
  (* exit through at_exit, which stops any daemon still running *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm; Sys.sighup ];
  (try Sys.mkdir "perfbench/_out" 0o755 with Sys_error _ -> ());
  try
    let spec = Spec.load "perfbench/spec.json" in
    let o =
      {
        root;
        tool;
        seconds = float !seconds;
        trace = !trace = 1;
        plant = false;
        digests = "perfbench/sweep_digests.txt";
      }
    in
    if !self then self_test o spec
    else if !record <> "" then begin
      let w = List.find (fun (w : Spec.workload) -> w.name = "sweep-pop") spec.workloads in
      let s = match w.kind with Spec.Sweep s -> s | Spec.Serve _ -> assert false in
      Scanf.sscanf !record "%d-%d" (fun a b ->
          for seed = a to b do
            print_endline (Sweep_load.digest_line ~seed s)
          done)
    end
    else begin
      if !seconds < 1 then raise (Arg.Bad "--seconds must be at least 1");
      if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
      let correct =
        if !workload = "all" then
          run_all spec
            ~argv:
              [|
                "--seed"; string_of_int !seed; "--seconds"; string_of_int !seconds;
                "--trace"; string_of_int !trace; "--root"; root; "--tool"; tool;
              |]
        else
          match List.find_opt (fun (w : Spec.workload) -> w.name = !workload) spec.workloads with
          | None -> raise (Arg.Bad ("unknown workload " ^ !workload))
          | Some w ->
            Printf.eprintf "%s seed %d, %d s, trace %d (held-out seed %d)\n%!" w.name !seed
              !seconds !trace spec.held_out_seed;
            let r = run_workload o ~seed:!seed w in
            print_result o r;
            r.correct
      in
      exit (if correct then 0 else 1)
    end
  with
  | Arg.Bad msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  | Failure msg | Sys_error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "perfbench: %s %s: %s\n" fn arg (Unix.error_message e);
    exit 2
