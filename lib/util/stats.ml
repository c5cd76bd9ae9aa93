let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
    let m = mean xs in
    let var = mean (List.map (fun x -> (x -. m) *. (x -. m)) xs) in
    sqrt var

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let min_max = function
  | [] -> invalid_arg "Stats.min_max: empty"
  | x :: xs ->
    List.fold_left (fun (lo, hi) v -> (Float.min lo v, Float.max hi v)) (x, x) xs

let percentile_sorted p a =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile_sorted p a

let ratio a b = if b = 0. then 0. else a /. b

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize xs =
  match xs with
  | [] -> { n = 0; mean = 0.; stddev = 0.; min = 0.; max = 0.; median = 0. }
  | _ ->
    let lo, hi = min_max xs in
    {
      n = List.length xs;
      mean = mean xs;
      stddev = stddev xs;
      min = lo;
      max = hi;
      median = median xs;
    }

let pp_summary fmt s =
  Format.fprintf fmt "n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g" s.n s.mean s.stddev
    s.min s.median s.max
