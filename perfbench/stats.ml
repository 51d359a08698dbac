(* Order statistics over one run's samples.

   [quantile] interpolates linearly between closest ranks (the "linear"
   method of numpy and of Python's [statistics.quantiles(method="inclusive")]),
   so a median over an even count is the mean of the two middle samples.

   The metrics use [harrell_davis] instead: a weighted mean of every order
   statistic, the weights peaked at the quantile's rank.  A run's latencies
   come from a finite mix of query classes with gaps between them; a plain
   order statistic jumps across a gap when two neighbouring samples swap,
   the Harrell-Davis estimate moves smoothly. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* [q] in [0, 1] over an already sorted, non-empty array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let lo = truncate pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile samples q = quantile_sorted (sorted samples) q
let median samples = quantile samples 0.5

(* log Gamma(x), x > 0: Lanczos' approximation (g = 7, 9 terms). *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313; -176.61502916214059;
       12.507343278686905; -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let s = ref c.(0) in
  for i = 1 to 8 do
    s := !s +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !s

(* The continued fraction of the incomplete beta function (modified Lentz). *)
let beta_fraction a b x =
  let tiny = 1e-300 in
  let clamp v = if Float.abs v < tiny then tiny else v in
  let c = ref 1. and d = ref (1. /. clamp (1. -. ((a +. b) *. x /. (a +. 1.)))) in
  let h = ref !d and m = ref 1 and converged = ref false in
  while (not !converged) && !m <= 10_000 do
    let mf = float_of_int !m in
    let step num =
      d := 1. /. clamp (1. +. (num *. !d));
      c := clamp (1. +. (num /. !c));
      !d *. !c
    in
    h := !h *. step (mf *. (b -. mf) *. x /. ((a -. 1. +. (2. *. mf)) *. (a +. (2. *. mf))));
    let delta = step (-.(a +. mf) *. (a +. b +. mf) *. x /. ((a +. (2. *. mf)) *. (a +. 1. +. (2. *. mf)))) in
    h := !h *. delta;
    converged := Float.abs (delta -. 1.) < 1e-15;
    incr m
  done;
  !h

(* The regularized incomplete beta function I_x(a, b). *)
let incomplete_beta a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else
    let front =
      exp (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. Float.log1p (-.x)))
    in
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. beta_fraction a b x /. a
    else 1. -. (front *. beta_fraction b a (1. -. x) /. b)

(* The Harrell-Davis estimate of quantile [q] in (0, 1) over an already
   sorted, non-empty array: sample i (1-based) weighs the Beta((n + 1) q,
   (n + 1) (1 - q)) probability of ((i - 1) / n, i / n]. *)
let harrell_davis_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.harrell_davis: no samples";
  if not (q > 0. && q < 1.) then invalid_arg "Stats.harrell_davis: q outside (0, 1)";
  let nf = float_of_int n in
  let alpha = q *. (nf +. 1.) and beta = (1. -. q) *. (nf +. 1.) in
  let acc = ref 0. and below = ref 0. in
  for i = 1 to n do
    let upto = incomplete_beta alpha beta (float_of_int i /. nf) in
    acc := !acc +. ((upto -. !below) *. a.(i - 1));
    below := upto
  done;
  !acc

let harrell_davis samples q = harrell_davis_sorted (sorted samples) q

(* The percentile ladder the tail is read from, highest first. *)
let ladder = [ 99.99; 99.9; 99.5; 99.; 98.; 95.; 90.; 80.; 75.; 50. ]

(* Samples strictly beyond percentile [p] of [n]: the count of ranks above
   the interpolation point. *)
let beyond ~n p = n - 1 - truncate (p /. 100. *. float_of_int (n - 1))

(* The highest ladder percentile that still has at least [min_beyond]
   samples beyond it — the one tail figure a run of [n] operations can
   support.  Falls back to the median when even that has too few. *)
let tail_percentile ?(min_beyond = 10) n =
  match List.find_opt (fun p -> beyond ~n p >= min_beyond) ladder with
  | Some p -> p
  | None -> 50.

type tail = { pct : float; value : float; beyond : int }

let tail ?min_beyond samples =
  let a = sorted samples in
  let n = Array.length a in
  let pct = tail_percentile ?min_beyond n in
  { pct; value = harrell_davis_sorted a (pct /. 100.); beyond = beyond ~n pct }

let sum samples = Array.fold_left ( +. ) 0. samples
