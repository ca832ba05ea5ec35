let percent part whole =
  if whole = 0 then 0. else 100. *. float_of_int part /. float_of_int whole

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let stddev = function
  | [] | [ _ ] -> 0.
  | xs ->
      let m = mean xs in
      sqrt (mean (List.map (fun x -> (x -. m) ** 2.) xs))

let quantile q = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let q = Float.max 0. (Float.min 1. q) in
      let rank = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then a.(lo) else a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let iqr xs = quantile 0.75 xs -. quantile 0.25 xs

let max_over f = List.fold_left (fun acc x -> Float.max acc (f x)) 0.

let ratio_scaled n rate =
  let v = int_of_float (Float.round (float_of_int n *. rate)) in
  if v < 0 then 0 else v

module Reservoir = struct
  type t = {
    r_samples : float array;
    r_prng : Prng.t;
    mutable r_count : int;
    mutable r_sum : float;
    mutable r_max : float;
  }

  let create ?(capacity = 512) ?(seed = 0L) () =
    if capacity < 1 then invalid_arg "Stats.Reservoir.create: capacity < 1";
    {
      r_samples = Array.make capacity 0.;
      r_prng = Prng.create seed;
      r_count = 0;
      r_sum = 0.;
      r_max = 0.;
    }

  let add t x =
    let cap = Array.length t.r_samples in
    (if t.r_count < cap then t.r_samples.(t.r_count) <- x
     else
       (* algorithm R: keep each sample with probability cap / count *)
       let j = Prng.int t.r_prng (t.r_count + 1) in
       if j < cap then t.r_samples.(j) <- x);
    t.r_count <- t.r_count + 1;
    t.r_sum <- t.r_sum +. x;
    t.r_max <- if t.r_count = 1 then x else Float.max t.r_max x

  let count t = t.r_count
  let kept t = min t.r_count (Array.length t.r_samples)
  let values t = Array.to_list (Array.sub t.r_samples 0 (kept t))
  let mean t = if t.r_count = 0 then 0. else t.r_sum /. float_of_int t.r_count
  let max_seen t = if t.r_count = 0 then 0. else t.r_max
  let stddev t = stddev (values t)
  let quantile t q = quantile q (values t)
end

module Ab = struct
  let run ?(warmup = 1) ~pairs a b =
    for _ = 1 to warmup do
      ignore (a ());
      ignore (b ())
    done;
    List.init pairs (fun i ->
        if i mod 2 = 0 then
          let ra = a () in
          (ra, b ())
        else
          let rb = b () in
          (a (), rb))

  type summary = { median_a : float; median_b : float; change : float; change_iqr : float }

  let summarize pairs =
    let changes = List.map (fun (a, b) -> (b /. a) -. 1.) pairs in
    {
      median_a = median (List.map fst pairs);
      median_b = median (List.map snd pairs);
      change = median changes;
      change_iqr = iqr changes;
    }

  type budget =
    | Overhead of { rel : float; slack : float }
    | Slowdown of { factor : float; slack : float }

  let allowed budget a =
    match budget with
    | Overhead { rel; slack } -> (a *. (1. +. rel)) +. slack
    | Slowdown { factor; slack } -> Float.max (a *. factor) (a +. slack)

  let admits budget ~a ~b = b <= allowed budget a
  let within budget pairs = median (List.map (fun (a, b) -> b -. allowed budget a) pairs) <= 0.
end
