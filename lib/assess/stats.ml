type error =
  | Not_enough_samples of { what : string; need : int; got : int }
  | Degenerate_samples of string
  | Non_finite of string

let pp_error fmt = function
  | Not_enough_samples { what; need; got } ->
    Format.fprintf fmt "%s: need >= %d samples, got %d" what need got
  | Degenerate_samples what -> Format.fprintf fmt "%s: degenerate samples" what
  | Non_finite what -> Format.fprintf fmt "%s: non-finite sample" what

let error_to_string e = Format.asprintf "%a" pp_error e

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let check_finite what xs =
  if Array.for_all Float.is_finite xs then Ok () else Error (Non_finite what)

(* Median of a non-empty array, destructive on a private copy. *)
let median_unchecked xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs =
  if Array.length xs = 0 then
    Error (Not_enough_samples { what = "median"; need = 1; got = 0 })
  else
    let* () = check_finite "median" xs in
    Ok (median_unchecked xs)

let mad xs =
  let n = Array.length xs in
  if n < 2 then Error (Not_enough_samples { what = "mad"; need = 2; got = n })
  else
    let* () = check_finite "mad" xs in
    let m = median_unchecked xs in
    Ok (median_unchecked (Array.map (fun x -> Float.abs (x -. m)) xs))

let rel_spread xs =
  let* spread = mad xs in
  let m = median_unchecked xs in
  if spread = 0. then Error (Degenerate_samples "rel_spread: all-equal series")
  else if m = 0. then Error (Degenerate_samples "rel_spread: zero median")
  else Ok (spread /. Float.abs m)

type ci = { lo : float; hi : float; level : float }

(* One bootstrap resample of [xs] into [scratch], then its median. *)
let resample_median rng xs scratch =
  let n = Array.length xs in
  for i = 0 to n - 1 do
    scratch.(i) <- xs.(Util.Rng.int rng n)
  done;
  median_unchecked scratch

let bootstrap_ci ?(seed = 9001) ?(resamples = 2000) ?(level = 0.95) xs =
  let n = Array.length xs in
  if n < 2 then Error (Not_enough_samples { what = "bootstrap_ci"; need = 2; got = n })
  else
    let* () = check_finite "bootstrap_ci" xs in
    let rng = Util.Rng.create seed in
    let scratch = Array.make n 0. in
    let medians =
      Array.init resamples (fun _ -> resample_median rng xs scratch)
    in
    Array.sort Float.compare medians;
    let alpha = (1. -. level) /. 2. in
    Ok
      {
        lo = Util.Stats.percentile_sorted (100. *. alpha) medians;
        hi = Util.Stats.percentile_sorted (100. *. (1. -. alpha)) medians;
        level;
      }

type verdict = Improved | Regressed | Within_noise

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Within_noise -> "within-noise"

type comparison = {
  a_n : int;
  b_n : int;
  a_median : float;
  b_median : float;
  ratio : float;
  ci : ci option;
  floor : float;
  verdict : verdict;
}

(* Oriented improvement ratio of B over A: > 1 means B is better. *)
let orient ~higher_is_better ~a ~b = if higher_is_better then b /. a else a /. b

(* Bootstrap the oriented ratio-of-medians. Equal-length sides resample
   pair indices (the interleaved-repeat pairing), unequal sides resample
   independently. Returns the sorted ratio draws. *)
let bootstrap_ratio ~seed ~resamples ~higher_is_better a b =
  let rng = Util.Rng.create seed in
  let na = Array.length a and nb = Array.length b in
  let sa = Array.make na 0. and sb = Array.make nb 0. in
  let draws =
    Array.init resamples (fun _ ->
        let ma, mb =
          if na = nb then begin
            for i = 0 to na - 1 do
              let k = Util.Rng.int rng na in
              sa.(i) <- a.(k);
              sb.(i) <- b.(k)
            done;
            (median_unchecked sa, median_unchecked sb)
          end
          else
            (resample_median rng a sa, resample_median rng b sb)
        in
        orient ~higher_is_better ~a:ma ~b:mb)
  in
  Array.sort Float.compare draws;
  draws

let compare_samples ?(seed = 9001) ?(resamples = 2000) ?(level = 0.95)
    ~higher_is_better ~floor a b =
  let a_n = Array.length a and b_n = Array.length b in
  if a_n = 0 then Error (Not_enough_samples { what = "compare_samples: run A"; need = 1; got = 0 })
  else if b_n = 0 then
    Error (Not_enough_samples { what = "compare_samples: run B"; need = 1; got = 0 })
  else
    let* () = check_finite "compare_samples: run A" a in
    let* () = check_finite "compare_samples: run B" b in
    let a_median = median_unchecked a and b_median = median_unchecked b in
    if a_median = 0. || b_median = 0. then
      Error (Degenerate_samples "compare_samples: zero median")
    else begin
      let ratio = orient ~higher_is_better ~a:a_median ~b:b_median in
      let ci =
        if a_n < 2 || b_n < 2 then None
        else begin
          let draws = bootstrap_ratio ~seed ~resamples ~higher_is_better a b in
          let alpha = (1. -. level) /. 2. in
          Some
            {
              lo = Util.Stats.percentile_sorted (100. *. alpha) draws;
              hi = Util.Stats.percentile_sorted (100. *. (1. -. alpha)) draws;
              level;
            }
        end
      in
      let verdict =
        match ci with
        | Some { lo; hi; _ } ->
          if lo > 1. +. floor then Improved
          else if hi < 1. -. floor then Regressed
          else Within_noise
        | None ->
          (* single-sample fallback: point estimate against the floor *)
          if ratio > 1. +. floor then Improved
          else if ratio < 1. -. floor then Regressed
          else Within_noise
      in
      Ok { a_n; b_n; a_median; b_median; ratio; ci; floor; verdict }
    end

let aa_floor ~a ~b =
  let* ma = median a in
  let* mb = median b in
  if ma = 0. || mb = 0. then Error (Degenerate_samples "aa_floor: zero median")
  else begin
    let shift = Float.abs ((mb /. ma) -. 1.) in
    let spread side =
      match rel_spread side with
      | Ok s -> s
      | Error _ -> 0.  (* all-equal repeats contribute no spread term *)
    in
    Ok (shift +. (2. *. Float.max (spread a) (spread b)))
  end
