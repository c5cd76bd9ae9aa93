type fronts = {
  area_frequency : Drive.item list;
  area_yield : Drive.item list;
  frequency_yield : Drive.item list;
  area_frequency_yield : Drive.item list;
}

let area it = float_of_int it.Drive.it_area
let freq it = it.Drive.it_frequency_hz
let yld it = it.Drive.it_yield

let fronts items =
  {
    area_frequency =
      Pareto.front ~maximize:[| false; true |] ~values:(fun it -> [| area it; freq it |]) items;
    area_yield =
      Pareto.front ~maximize:[| false; true |] ~values:(fun it -> [| area it; yld it |]) items;
    frequency_yield =
      Pareto.front ~maximize:[| true; true |] ~values:(fun it -> [| freq it; yld it |]) items;
    area_frequency_yield =
      Pareto.front
        ~maximize:[| false; true; true |]
        ~values:(fun it -> [| area it; freq it; yld it |])
        items;
  }

type stage_stat = { st_name : string; st_count : int; st_p50_s : float; st_p95_s : float }

let stage_stats items =
  let order = ref [] in
  let pools : (string, float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun it ->
      List.iter
        (fun (name, dur) ->
          match Hashtbl.find_opt pools name with
          | Some pool -> pool := dur :: !pool
          | None ->
              Hashtbl.add pools name (ref [ dur ]);
              order := name :: !order)
        it.Drive.it_stage_s)
    items;
  List.rev_map
    (fun name ->
      let samples = Array.of_list !(Hashtbl.find pools name) in
      Array.sort compare samples;
      {
        st_name = name;
        st_count = Array.length samples;
        st_p50_s = Util.Stats.percentile_sorted 50.0 samples;
        st_p95_s = Util.Stats.percentile_sorted 95.0 samples;
      })
    !order

(* ------------------------------------------------------------------ *)
(* JSON views *)

let num x = Assess.Json.Number x
let int x = num (float_of_int x)
let int_list xs = Assess.Json.List (List.map int xs)

(* Deterministic item rendering: the full value record, latencies
   dropped. *)
let det_item it =
  match Drive.item_json { it with Drive.it_stage_s = [] } with
  | Assess.Json.Obj kvs -> Assess.Json.Obj (List.remove_assoc "stage_s" kvs)
  | j -> j

let space_json (s : Drive.space) =
  Assess.Json.Obj
    [ ("inputs", int_list s.inputs); ("outputs", int_list s.outputs); ("products", int_list s.products) ]

let fronts_json fs =
  let front items = Assess.Json.List (List.map det_item items) in
  Assess.Json.Obj
    [
      ("area_frequency", front fs.area_frequency);
      ("area_yield", front fs.area_yield);
      ("frequency_yield", front fs.frequency_yield);
      ("area_frequency_yield", front fs.area_frequency_yield);
    ]

let front_json (r : Drive.result) =
  Assess.Json.Obj
    [
      ("schema", Assess.Json.String "sweep-fronts-v1");
      ("seed", int r.r_seed);
      ("profiles", int r.r_profiles);
      ("space", space_json r.r_space);
      ("fronts", fronts_json (fronts r.r_items));
    ]

let failure_json (f : Drive.failure) =
  Assess.Json.Obj
    [
      ("index", int f.fl_index);
      ("name", Assess.Json.String f.fl_name);
      ("stage", Assess.Json.String f.fl_stage);
      ("error", Assess.Json.String f.fl_error);
    ]

let deterministic_json (r : Drive.result) =
  Assess.Json.Obj
    [
      ("schema", Assess.Json.String "sweep-population-v1");
      ("seed", int r.r_seed);
      ("profiles", int r.r_profiles);
      ("space", space_json r.r_space);
      ("items", Assess.Json.List (List.map det_item r.r_items));
      ("failures", Assess.Json.List (List.map failure_json r.r_failures));
      ("fronts", fronts_json (fronts r.r_items));
    ]

let bench_json (r : Drive.result) =
  let det =
    match deterministic_json r with Assess.Json.Obj kvs -> kvs | _ -> assert false
  in
  let stats = stage_stats r.r_items in
  let stage_json =
    Assess.Json.Obj
      (List.map
         (fun s ->
           ( s.st_name,
             Assess.Json.Obj
               [ ("count", int s.st_count); ("p50_s", num s.st_p50_s); ("p95_s", num s.st_p95_s) ]
           ))
         stats)
  in
  let completed = List.length r.r_items in
  let throughput = if r.r_wall_s > 0.0 then float_of_int completed /. r.r_wall_s else 0.0 in
  Assess.Json.Obj
    (det
    @ [
        ("jobs", int r.r_jobs);
        ("resumed", int r.r_resumed);
        ("wall_s", num r.r_wall_s);
        ("items_per_s", num throughput);
        ("stages", stage_json);
      ])

let write ~path json =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Assess.Json.to_string ~indent:2 json);
      Out_channel.output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Assess metrics *)

let to_metrics (r : Drive.result) =
  let completed = List.length r.r_items in
  let throughput = if r.r_wall_s > 0.0 then float_of_int completed /. r.r_wall_s else 0.0 in
  let base =
    [
      Assess.Run.metric ~units:"s" ~higher_is_better:false "sweep.wall_s" [| r.r_wall_s |];
      Assess.Run.metric ~units:"items/s" "sweep.items_per_s" [| throughput |];
    ]
  in
  let per_stage =
    List.concat_map
      (fun s ->
        [
          Assess.Run.metric ~units:"s" ~higher_is_better:false
            (Printf.sprintf "sweep.stage.%s.p50_s" s.st_name)
            [| s.st_p50_s |];
          Assess.Run.metric ~units:"s" ~higher_is_better:false
            (Printf.sprintf "sweep.stage.%s.p95_s" s.st_name)
            [| s.st_p95_s |];
        ])
      (stage_stats r.r_items)
  in
  base @ per_stage

let merge_metrics per_repeat =
  let order = ref [] in
  let pools : (string, Assess.Run.metric * float list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (m : Assess.Run.metric) ->
         match Hashtbl.find_opt pools m.name with
         | Some (_, pool) -> pool := List.rev_append (Array.to_list m.samples) !pool
         | None ->
             Hashtbl.add pools m.name (m, ref (List.rev (Array.to_list m.samples)));
             order := m.name :: !order))
    per_repeat;
  List.rev_map
    (fun name ->
      let m, pool = Hashtbl.find pools name in
      { m with Assess.Run.samples = Array.of_list (List.rev !pool) })
    !order

let summary (r : Drive.result) =
  let fs = fronts r.r_items in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "sweep: %d/%d items ok, %d failed, %d resumed, %.1fs (%d jobs)\n"
    (List.length r.r_items) r.r_profiles
    (List.length r.r_failures)
    r.r_resumed r.r_wall_s r.r_jobs;
  Printf.bprintf buf
    "fronts: area×freq %d, area×yield %d, freq×yield %d, area×freq×yield %d\n"
    (List.length fs.area_frequency)
    (List.length fs.area_yield)
    (List.length fs.frequency_yield)
    (List.length fs.area_frequency_yield);
  List.iter
    (fun s ->
      Printf.bprintf buf "  %-16s p50 %8.3f ms  p95 %8.3f ms  (%d)\n" s.st_name
        (s.st_p50_s *. 1e3) (s.st_p95_s *. 1e3) s.st_count)
    (stage_stats r.r_items);
  List.iter
    (fun (f : Drive.failure) ->
      Printf.bprintf buf "  FAILED %s at %s: %s\n" f.fl_name f.fl_stage f.fl_error)
    r.r_failures;
  Buffer.contents buf
