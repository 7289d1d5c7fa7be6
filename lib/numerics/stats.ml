module Acc = struct
  (* All-float record, stored flat: a float write into a record that also
     holds an [int] field boxes. The count is exact as a float below
     2^53, so the moments are the ones an [int] count gives. *)
  type t = {
    mutable n : float;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
  }

  let create () = { n = 0.; mean = 0.; m2 = 0.; mn = infinity; mx = neg_infinity }

  let add t x =
    t.n <- t.n +. 1.;
    let d = x -. t.mean in
    t.mean <- t.mean +. (d /. t.n);
    t.m2 <- t.m2 +. (d *. (x -. t.mean));
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x

  let count t = int_of_float t.n

  (* Degenerate accumulators (n = 0, and n = 1 for the sample variance)
     return 0 rather than NaN: an empty shard merged in from a pool run
     or a single-trial sweep cell must not poison downstream ratios,
     stderr bars, or JSON dumps with NaN. The convention is the empty
     sum / "no observed spread", and it is what the merged result of
     [merge empty empty] reports too. *)
  let mean t = if t.n = 0. then 0. else t.mean
  let var t = if t.n = 0. then 0. else t.m2 /. t.n
  let var_sample t = if t.n < 2. then 0. else t.m2 /. (t.n -. 1.)
  let stddev t = sqrt (var t)

  let stderr t =
    if t.n < 2. then 0.
    else sqrt (var_sample t /. t.n)

  let min t = t.mn
  let max t = t.mx

  let merge a b =
    if a.n = 0. then { b with n = b.n }
    else if b.n = 0. then { a with n = a.n }
    else begin
      let n = a.n +. b.n in
      let d = b.mean -. a.mean in
      let mean = a.mean +. (d *. b.n /. n) in
      let m2 = a.m2 +. b.m2 +. (d *. d *. a.n *. b.n /. n) in
      {
        n;
        mean;
        m2;
        mn = Stdlib.min a.mn b.mn;
        mx = Stdlib.max a.mx b.mx;
      }
    end
end

module Cov = struct
  type t = {
    mutable n : int;
    mutable mx : float;
    mutable my : float;
    mutable cxy : float;
    mutable m2x : float;
    mutable m2y : float;
  }

  let create () = { n = 0; mx = 0.; my = 0.; cxy = 0.; m2x = 0.; m2y = 0. }

  let add t x y =
    t.n <- t.n + 1;
    let fn = float_of_int t.n in
    let dx = x -. t.mx in
    let dy = y -. t.my in
    t.mx <- t.mx +. (dx /. fn);
    t.my <- t.my +. (dy /. fn);
    t.cxy <- t.cxy +. (dx *. (y -. t.my));
    t.m2x <- t.m2x +. (dx *. (x -. t.mx));
    t.m2y <- t.m2y +. (dy *. (y -. t.my))

  let cov t = if t.n = 0 then nan else t.cxy /. float_of_int t.n

  let corr t =
    if t.n = 0 then nan
    else
      let d = sqrt (t.m2x *. t.m2y) in
      if d = 0. then nan else t.cxy /. d
end

let mean a =
  let acc = Acc.create () in
  Array.iter (Acc.add acc) a;
  Acc.mean acc

let variance a =
  let acc = Acc.create () in
  Array.iter (Acc.add acc) a;
  Acc.var acc

let stddev a = sqrt (variance a)
let cv ~mean ~var = sqrt var /. mean

let erf x =
  (* Abramowitz & Stegun 7.1.26. *)
  let sign = if x < 0. then -1. else 1. in
  let x = abs_float x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429 in
  let poly = ((((((((a5 *. t) +. a4) *. t) +. a3) *. t) +. a2) *. t) +. a1) *. t in
  sign *. (1. -. (poly *. exp (-.x *. x)))

let z_of_level level =
  if level <= 0. || level >= 1. then invalid_arg "Stats.z_of_level";
  (* Solve erf (z / sqrt 2) = level by bisection. *)
  let target = level in
  let f z = erf (z /. sqrt 2.) -. target in
  let lo = ref 0. and hi = ref 10. in
  for _ = 1 to 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if f mid < 0. then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let normal_ci ~level ~mean ~var ~n =
  if n <= 0 then invalid_arg "Stats.normal_ci: n must be positive";
  let z = z_of_level level in
  let half = z *. sqrt (var /. float_of_int n) in
  (mean -. half, mean +. half)

let quantile a q =
  if Array.length a = 0 then invalid_arg "Stats.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of range";
  let b = Array.copy a in
  Array.sort Float.compare b;
  let n = Array.length b in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  ((1. -. frac) *. b.(lo)) +. (frac *. b.(hi))

let chi_square_uniform ~counts =
  let k = Array.length counts in
  if k = 0 then invalid_arg "Stats.chi_square_uniform: empty";
  let total = Array.fold_left ( + ) 0 counts in
  let expected = float_of_int total /. float_of_int k in
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0. counts
