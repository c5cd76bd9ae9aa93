(* The workload parameters of perfbench/spec.json. *)

type programs =
  | Generators  (** the Mcnc.Generators suite with at most 8 inputs *)
  | Synthetic of { count : int; profile : Mcnc.Profiles.t }

type serve = {
  programs : programs;
  tenants : int;
  batch : int;  (** vectors per request *)
  requests_per_program : int;  (** copies of each program in the request pool *)
  warm_all_pairs : bool;  (** warm-up compiles every (tenant, program) pair *)
  warmup_requests : int;  (** untimed pool requests sent before the window *)
}

type sweep = { items : int  (** the range is items 0..items-1 *); warmup_items : int }

type kind = Serve of serve | Sweep of sweep

type workload = { name : string; kind : kind; tail_percentile : float }

type t = { held_out_seed : int; workloads : workload list }

let fail fmt = Printf.ksprintf failwith fmt

let field conv what j k =
  match Option.bind (Assess.Json.member k j) conv with
  | Some v -> v
  | None -> fail "spec.json: %s: missing or ill-typed %S" what k

let int = field Assess.Json.to_int
let num = field Assess.Json.to_float
let str = field Assess.Json.to_str
let bool = field Assess.Json.to_bool
let obj = field Option.some

let programs name j =
  match str name j "programs" with
  | "generators" -> Generators
  | "synthetic" ->
    let p = obj name j "synthetic_profile" in
    Synthetic
      {
        count = int name j "synthetic_programs";
        profile =
          {
            Mcnc.Profiles.name = "perfbench-churn";
            n_in = int name p "inputs";
            n_out = int name p "outputs";
            n_products = int name p "products";
          };
      }
  | other -> fail "spec.json: %s: unknown program set %S" name other

let workload (name, j) =
  let kind =
    match str name j "kind" with
    | "serve" ->
      Serve
        {
          programs = programs name j;
          tenants = int name j "tenants";
          batch = int name j "batch";
          requests_per_program = int name j "requests_per_program";
          warm_all_pairs = bool name j "warm_all_pairs";
          warmup_requests = int name j "warmup_requests";
        }
    | "sweep" ->
      Sweep { items = int name j "items"; warmup_items = int name j "warmup_items" }
    | other -> fail "spec.json: %s: unknown kind %S" name other
  in
  { name; kind; tail_percentile = num name j "tail_percentile" }

let load path =
  let j =
    match Assess.Json.parse (Measure.read_file path) with
    | Ok j -> j
    | Error e -> fail "%s: offset %d: %s" path e.Assess.Json.pos e.Assess.Json.msg
  in
  let workloads =
    match Assess.Json.member "workloads" j with
    | Some (Assess.Json.Obj kvs) -> List.map workload kvs
    | _ -> fail "%s: no workloads object" path
  in
  { held_out_seed = int "top level" j "held_out_seed"; workloads }
