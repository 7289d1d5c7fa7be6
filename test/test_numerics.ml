(* Unit and property tests for the numerics substrate. *)

open Numerics

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Special.float_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_determinism () =
  let a = Prng.create ~seed:123 () in
  let b = Prng.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () in
  let b = Prng.create ~seed:2 () in
  Alcotest.(check bool) "different seeds differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_float_range () =
  let r = Prng.create ~seed:5 () in
  for _ = 1 to 10_000 do
    let x = Prng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of range: %g" x
  done

let test_prng_float_open () =
  let r = Prng.create ~seed:6 () in
  for _ = 1 to 10_000 do
    let x = Prng.float_open r in
    if x <= 0. || x >= 1. then Alcotest.failf "float_open out of range: %g" x
  done

let test_prng_int_bounds () =
  let r = Prng.create ~seed:7 () in
  for _ = 1 to 10_000 do
    let x = Prng.int r 17 in
    if x < 0 || x >= 17 then Alcotest.failf "int out of bounds: %d" x
  done

let test_prng_int_uniformity () =
  let r = Prng.create ~seed:8 () in
  let cells = Array.make 16 0 in
  let n = 160_000 in
  for _ = 1 to n do
    let i = Prng.int r 16 in
    cells.(i) <- cells.(i) + 1
  done;
  let chi2 = Stats.chi_square_uniform ~counts:cells in
  (* 15 dof; 99.99th percentile ≈ 44.3. *)
  if chi2 > 44.3 then Alcotest.failf "chi-square too large: %g" chi2

let test_prng_bool_balance () =
  let r = Prng.create ~seed:9 () in
  let n = 100_000 in
  let heads = ref 0 in
  for _ = 1 to n do
    if Prng.bool r then incr heads
  done;
  let frac = float_of_int !heads /. float_of_int n in
  if abs_float (frac -. 0.5) > 0.01 then Alcotest.failf "biased coin: %g" frac

let test_prng_exponential_mean () =
  let r = Prng.create ~seed:10 () in
  let acc = Stats.Acc.create () in
  for _ = 1 to 200_000 do
    Stats.Acc.add acc (Prng.exponential r 2.)
  done;
  check_float ~eps:0.02 "Exp(2) mean" 0.5 (Stats.Acc.mean acc)

let test_prng_split_independent () =
  let a = Prng.create ~seed:11 () in
  let b = Prng.split a in
  Alcotest.(check bool) "split streams differ" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_copy () =
  let a = Prng.create ~seed:12 () in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_shuffle_permutation () =
  let r = Prng.create ~seed:13 () in
  let a = Array.init 50 Fun.id in
  Prng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 50 Fun.id) sorted

let test_prng_int_invalid () =
  let r = Prng.create () in
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_xoshiro_jump_changes_state () =
  let a = Prng.Xoshiro256.create 99L in
  let b = Prng.Xoshiro256.copy a in
  Prng.Xoshiro256.jump b;
  Alcotest.(check bool) "jumped stream differs" true
    (Prng.Xoshiro256.next a <> Prng.Xoshiro256.next b)

let test_splitmix_mix_distinct () =
  let seen = Hashtbl.create 64 in
  for i = 0 to 1000 do
    Hashtbl.replace seen (Prng.SplitMix64.mix (Int64.of_int i)) ()
  done;
  Alcotest.(check int) "mix is injective on small range" 1001 (Hashtbl.length seen)

(* Stream pins: the exact outputs of every generator entry point. Every
   Monte-Carlo moment, Fig. 4 row and generated workload input is a
   function of these streams, so a change to the generator's state
   layout must leave them bit-identical. *)
let check_int64s msg expected actual =
  Alcotest.(check (list int64)) msg expected actual

let test_xoshiro_stream_pinned () =
  let x = Prng.Xoshiro256.create 42L in
  check_int64s "create 42"
    [ 0x15780b2e0c2ec716L; 0x6104d9866d113a7eL; 0xae17533239e499a1L;
      0xecb8ad4703b360a1L; 0xfde6dc7fe2ec5e64L; 0xc50da53101795238L;
      0xb82154855a65ddb2L; 0xd99a2743ebe60087L ]
    (List.init 8 (fun _ -> Prng.Xoshiro256.next x));
  let x = Prng.Xoshiro256.create 42L in
  Prng.Xoshiro256.jump x;
  check_int64s "create 42, jump"
    [ 0x50086ef83cbf4f4aL; 0xba285ec21347d703L; 0x5ea1247b4dc6452aL;
      0x03a5c66424702131L; 0x77369f9f12449a8bL; 0x1eab92f3c9460792L;
      0xf5484aa43e93f003L; 0x42e0a9ae4359c6feL ]
    (List.init 8 (fun _ -> Prng.Xoshiro256.next x));
  let sm = Prng.SplitMix64.create 7L in
  check_int64s "splitmix 7"
    [ 0x63cbe1e459320dd7L; 0x044c3cd7f43c661cL; 0xe6984080bab12a02L;
      0x953aeb70673e29cbL ]
    (List.init 4 (fun _ -> Prng.SplitMix64.next sm))

let test_prng_samplers_pinned () =
  let r = Prng.create ~seed:2011 () in
  check_int64s "float, seed 2011"
    [ 0x3fc7092e09cf2d7cL; 0x3fd45a9ac18bda3cL; 0x3fd0bc10df5c583cL;
      0x3fe7d6eadac92333L; 0x3fd311848f6dbc54L; 0x3fec5f90238821aeL;
      0x3fd3cbe0b477b27cL; 0x3fe67d3248322010L ]
    (List.init 8 (fun _ -> Int64.bits_of_float (Prng.float r)));
  let r = Prng.create ~seed:2011 () in
  Alcotest.(check (list int))
    "int 1000, seed 2011"
    [ 289; 759; 43; 484; 693; 826; 769; 507 ]
    (List.init 8 (fun _ -> Prng.int r 1000));
  let r = Prng.create ~seed:2011 () in
  Alcotest.(check (list bool))
    "bool, seed 2011"
    [ true; false; false; true; false; true; true; true;
      false; false; true; false; true; false; true; true ]
    (List.init 16 (fun _ -> Prng.bool r));
  check_int64s "substream 0x5EED i, first output"
    [ 0x9b56667ea8e92797L; 0x713dd417f568eba7L; 0xbe5e96e5e94a7074L;
      0x0fe4aa2313099535L; 0xf8df3fc4b6576250L ]
    (List.map
       (fun i -> Prng.bits64 (Prng.substream ~master:0x5EED i))
       [ 0; 1; 2; 63; 1000 ])

(* [bool] returns an immediate, so a generator step must allocate
   nothing: the state is updated in place. *)
let test_prng_step_no_alloc () =
  let r = Prng.create ~seed:2011 () in
  Allocheck.assert_no_alloc "Prng.bool" (fun () ->
      ignore (Sys.opaque_identity (Prng.bool r)))

(* Oblivious r=8 Monte-Carlo of the Theorem 4.2 estimator: pins the
   outcome draw, the estimator and the accumulator together. *)
let test_monte_carlo_moments_pinned () =
  let probs = Array.make 8 0.2 in
  let v = [| 3.; 1.5; 7.25; 2.; 9.; 4.5; 0.75; 6. |] in
  let c = Estcore.Max_oblivious.Coeffs.compute ~r:8 ~p:0.2 in
  let draw rng = Sampling.Outcome.Oblivious.draw rng ~probs v in
  let est = Estcore.Max_oblivious.l_uniform c in
  let bits (m : Estcore.Exact.moments) =
    [ Int64.bits_of_float m.mean; Int64.bits_of_float m.var ]
  in
  let sharded pool =
    Estcore.Exact.monte_carlo ?pool ~master:2011 ~shards:16
      ~rng:(Prng.create ()) ~n:5000 ~draw est
  in
  check_int64s "sharded, sequential"
    [ 0x40248d96d4172188L; 0x40c451987063bed3L ]
    (bits (sharded None));
  let p = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () ->
      check_int64s "sharded, 2 domains"
        [ 0x40248d96d4172188L; 0x40c451987063bed3L ]
        (bits (sharded (Some p))));
  check_int64s "single stream"
    [ 0x40208efb46f5da36L; 0x406ae1cc79809ca4L ]
    (bits
       (Estcore.Exact.monte_carlo ~rng:(Prng.create ~seed:9 ()) ~n:3000 ~draw
          est))

(* ------------------------------------------------------------------ *)
(* Hashing                                                             *)
(* ------------------------------------------------------------------ *)

let test_hash_deterministic () =
  Alcotest.(check int64) "hash_int deterministic"
    (Hashing.hash_int ~salt:5L 42)
    (Hashing.hash_int ~salt:5L 42)

let test_hash_salt_sensitivity () =
  Alcotest.(check bool) "salts matter" true
    (Hashing.hash_int ~salt:1L 42 <> Hashing.hash_int ~salt:2L 42)

let test_hash_key_sensitivity () =
  Alcotest.(check bool) "keys matter" true
    (Hashing.hash_int ~salt:1L 42 <> Hashing.hash_int ~salt:1L 43)

let test_hash_string () =
  Alcotest.(check bool) "string hash distinguishes" true
    (Hashing.hash_string ~salt:1L "abc" <> Hashing.hash_string ~salt:1L "abd");
  Alcotest.(check int64) "string hash deterministic"
    (Hashing.hash_string ~salt:1L "abc")
    (Hashing.hash_string ~salt:1L "abc")

let test_to_unit_range () =
  for i = 0 to 10_000 do
    let u = Hashing.to_unit (Hashing.hash_int ~salt:3L i) in
    if u < 0. || u >= 1. then Alcotest.failf "to_unit out of range: %g" u;
    let v = Hashing.uniform_int ~salt:3L i in
    if v <= 0. || v >= 1. then Alcotest.failf "uniform_int out of range: %g" v
  done

let test_uniform_int_uniformity () =
  let cells = Array.make 10 0 in
  let n = 100_000 in
  for i = 0 to n - 1 do
    let u = Hashing.uniform_int ~salt:77L i in
    let c = int_of_float (u *. 10.) in
    cells.(min 9 c) <- cells.(min 9 c) + 1
  done;
  let chi2 = Stats.chi_square_uniform ~counts:cells in
  if chi2 > 33.7 (* 9 dof, 99.99% *) then Alcotest.failf "hash not uniform: %g" chi2

let test_salt_of_instance_distinct () =
  let s0 = Hashing.salt_of_instance ~master:1 0 in
  let s1 = Hashing.salt_of_instance ~master:1 1 in
  let s0' = Hashing.salt_of_instance ~master:2 0 in
  Alcotest.(check bool) "instances distinct" true (s0 <> s1);
  Alcotest.(check bool) "masters distinct" true (s0 <> s0')

let test_combine_noncommutative () =
  Alcotest.(check bool) "combine order matters" true
    (Hashing.combine 1L 2L <> Hashing.combine 2L 1L)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_acc_basic () =
  let a = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check int) "count" 4 (Stats.Acc.count a);
  check_float "mean" 2.5 (Stats.Acc.mean a);
  check_float "var" 1.25 (Stats.Acc.var a);
  check_float "var_sample" (5. /. 3.) (Stats.Acc.var_sample a);
  check_float "min" 1. (Stats.Acc.min a);
  check_float "max" 4. (Stats.Acc.max a)

(* Degenerate accumulators (n = 0, n = 1) must be NaN-free: an empty
   pool shard or single-trial cell used to report NaN mean/variance and
   poison any downstream merge or ratio. *)
let test_acc_empty () =
  let a = Stats.Acc.create () in
  check_float "empty mean" 0. (Stats.Acc.mean a);
  check_float "empty var" 0. (Stats.Acc.var a);
  check_float "empty var_sample" 0. (Stats.Acc.var_sample a);
  check_float "empty stddev" 0. (Stats.Acc.stddev a);
  check_float "empty stderr" 0. (Stats.Acc.stderr a);
  Alcotest.(check bool) "empty min" true (Stats.Acc.min a = infinity);
  Alcotest.(check bool) "empty max" true (Stats.Acc.max a = neg_infinity)

let test_acc_single () =
  let a = Stats.Acc.create () in
  Stats.Acc.add a 7.5;
  check_float "single mean" 7.5 (Stats.Acc.mean a);
  check_float "single var" 0. (Stats.Acc.var a);
  check_float "single var_sample" 0. (Stats.Acc.var_sample a);
  check_float "single stderr" 0. (Stats.Acc.stderr a)

let test_acc_merge_empty () =
  let a = Stats.Acc.create () and e = Stats.Acc.create () in
  List.iter (Stats.Acc.add a) [ 2.; 4.; 6. ];
  List.iter
    (fun m ->
      check_float "mean preserved" (Stats.Acc.mean a) (Stats.Acc.mean m);
      check_float "var preserved" (Stats.Acc.var a) (Stats.Acc.var m);
      Alcotest.(check int) "count preserved" 3 (Stats.Acc.count m))
    [ Stats.Acc.merge a e; Stats.Acc.merge e a ];
  let ee = Stats.Acc.merge e (Stats.Acc.create ()) in
  check_float "empty+empty mean" 0. (Stats.Acc.mean ee);
  check_float "empty+empty var" 0. (Stats.Acc.var ee)

let test_normal_ci_guard () =
  Alcotest.check_raises "n = 0 raises"
    (Invalid_argument "Stats.normal_ci: n must be positive") (fun () ->
      ignore (Stats.normal_ci ~level:0.95 ~mean:0. ~var:1. ~n:0))

let test_acc_merge () =
  let a = Stats.Acc.create () and b = Stats.Acc.create () in
  let all = Stats.Acc.create () in
  List.iter
    (fun x ->
      Stats.Acc.add all x;
      if x < 3. then Stats.Acc.add a x else Stats.Acc.add b x)
    [ 1.; 2.; 3.; 4.; 5.; 10. ];
  let m = Stats.Acc.merge a b in
  check_float "merged mean" (Stats.Acc.mean all) (Stats.Acc.mean m);
  check_float "merged var" (Stats.Acc.var all) (Stats.Acc.var m);
  Alcotest.(check int) "merged count" 6 (Stats.Acc.count m)

let test_cov_correlation () =
  let c = Stats.Cov.create () in
  List.iter (fun x -> Stats.Cov.add c x (2. *. x +. 1.)) [ 1.; 2.; 3.; 4. ];
  check_float "perfect corr" 1. (Stats.Cov.corr c);
  let d = Stats.Cov.create () in
  List.iter (fun x -> Stats.Cov.add d x (-.x)) [ 1.; 2.; 3.; 4. ];
  check_float "anti corr" (-1.) (Stats.Cov.corr d)

let test_cov_value () =
  let c = Stats.Cov.create () in
  List.iter2 (Stats.Cov.add c) [ 1.; 2.; 3. ] [ 2.; 4.; 3. ];
  (* means: 2, 3; cov = ((−1)(−1)+(0)(1)+(1)(0))/3 = 1/3 *)
  check_float "cov" (1. /. 3.) (Stats.Cov.cov c)

let test_batch_stats () =
  check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  check_float "variance" (2. /. 3.) (Stats.variance [| 1.; 2.; 3. |]);
  check_float "stddev" (sqrt (2. /. 3.)) (Stats.stddev [| 1.; 2.; 3. |]);
  check_float "cv" 0.5 (Stats.cv ~mean:2. ~var:1.)

let test_erf () =
  check_float ~eps:1e-6 "erf 0" 0. (Stats.erf 0.);
  check_float ~eps:1e-4 "erf 1" 0.8427007929 (Stats.erf 1.);
  check_float ~eps:1e-4 "erf -1" (-0.8427007929) (Stats.erf (-1.));
  check_float ~eps:1e-6 "erf 5" 1. (Stats.erf 5.)

let test_z_of_level () =
  check_float ~eps:1e-3 "z(0.95)" 1.95996 (Stats.z_of_level 0.95);
  check_float ~eps:1e-3 "z(0.99)" 2.57583 (Stats.z_of_level 0.99)

let test_normal_ci () =
  let lo, hi = Stats.normal_ci ~level:0.95 ~mean:10. ~var:4. ~n:100 in
  check_float ~eps:1e-3 "ci lo" (10. -. (1.95996 *. 0.2)) lo;
  check_float ~eps:1e-3 "ci hi" (10. +. (1.95996 *. 0.2)) hi

let test_quantile () =
  let a = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "median" 3. (Stats.quantile a 0.5);
  check_float "min" 1. (Stats.quantile a 0.);
  check_float "max" 5. (Stats.quantile a 1.);
  check_float "q25" 2. (Stats.quantile a 0.25)

let test_chi_square () =
  check_float "uniform counts" 0. (Stats.chi_square_uniform ~counts:[| 5; 5; 5 |]);
  (* counts (10,5,0): expected 5 each → (25 + 0 + 25)/5 = 10. *)
  check_float "skewed" 10. (Stats.chi_square_uniform ~counts:[| 10; 5; 0 |])

(* ------------------------------------------------------------------ *)
(* Special                                                             *)
(* ------------------------------------------------------------------ *)

let test_binomial () =
  check_float "C(10,3)" 120. (Special.binomial 10 3);
  check_float "C(5,0)" 1. (Special.binomial 5 0);
  check_float "C(5,5)" 1. (Special.binomial 5 5);
  check_float "C(5,6)" 0. (Special.binomial 5 6);
  check_float "C(5,-1)" 0. (Special.binomial 5 (-1));
  check_float "C(52,5)" 2598960. (Special.binomial 52 5)

let test_binomial_int () =
  Alcotest.(check int) "C(10,3)" 120 (Special.binomial_int 10 3);
  Alcotest.(check int) "C(20,10)" 184756 (Special.binomial_int 20 10)

let test_pow_int () =
  check_float "2^10" 1024. (Special.pow_int 2. 10);
  check_float "x^0" 1. (Special.pow_int 3.7 0);
  check_float "0.5^3" 0.125 (Special.pow_int 0.5 3)

let test_log_binomial () =
  check_float ~eps:1e-9 "log C(10,3)" (log 120.) (Special.log_binomial 10 3)

let test_falling () =
  check_float "5·4·3" 60. (Special.falling 5. 3);
  check_float "x^(0)" 1. (Special.falling 5. 0)

let test_harmonic () =
  check_float "H1" 1. (Special.harmonic 1);
  check_float "H4" (25. /. 12.) (Special.harmonic 4);
  check_float "gen s=1" (Special.harmonic 10) (Special.generalized_harmonic 10 1.)

let test_solve_bisect () =
  let root = Special.solve_bisect (fun x -> (x *. x) -. 2.) 0. 2. in
  check_float ~eps:1e-10 "sqrt 2" (sqrt 2.) root;
  let root = Special.solve_bisect (fun x -> x -. 1.) 1. 5. in
  check_float "root at endpoint" 1. root

let test_solve_bisect_no_sign_change () =
  Alcotest.check_raises "rejects same-sign interval"
    (Invalid_argument "Special.solve_bisect: no sign change on interval")
    (fun () -> ignore (Special.solve_bisect (fun x -> (x *. x) +. 1.) 0. 1.))

let test_float_equal () =
  Alcotest.(check bool) "exact" true (Special.float_equal 1. 1.);
  Alcotest.(check bool) "relative" true (Special.float_equal 1e12 (1e12 +. 1.));
  Alcotest.(check bool) "distinct" false (Special.float_equal 1. 1.1)

(* ------------------------------------------------------------------ *)
(* Integrate                                                           *)
(* ------------------------------------------------------------------ *)

let test_simpson_poly () =
  check_float ~eps:1e-10 "x^2 on [0,1]" (1. /. 3.)
    (Integrate.simpson (fun x -> x *. x) 0. 1.);
  check_float ~eps:1e-9 "sin on [0,pi]" 2. (Integrate.simpson sin 0. Float.pi)

let test_simpson_pieces_kink () =
  check_float ~eps:1e-10 "|x-1/2| on [0,1]" 0.25
    (Integrate.simpson_pieces ~breakpoints:[ 0.5 ]
       (fun x -> abs_float (x -. 0.5))
       0. 1.)

let test_trapezoid () =
  check_float ~eps:1e-4 "trapezoid x^2" (1. /. 3.)
    (Integrate.trapezoid_grid ~n:1000 (fun x -> x *. x) 0. 1.)

let test_gauss_legendre_exactness () =
  (* GL with 32 nodes is exact for polynomials of degree 63. *)
  check_float ~eps:1e-12 "x^10 on [0,1]" (1. /. 11.)
    (Integrate.gauss_legendre (fun x -> x ** 10.) 0. 1.);
  check_float ~eps:1e-12 "x^63 on [0,1]" (1. /. 64.)
    (Integrate.gauss_legendre (fun x -> x ** 63.) 0. 1.)

let test_gauss_legendre_analytic () =
  check_float ~eps:1e-12 "exp on [0,1]" (exp 1. -. 1.)
    (Integrate.gauss_legendre exp 0. 1.);
  check_float ~eps:1e-10 "log singular-ish" (-1.)
    (Integrate.gl_pieces
       ~breakpoints:(List.init 12 (fun k -> 10. ** float_of_int (-k - 1)))
       log 0. 1. |> fun x -> x +. 0. )

let test_gl_pieces_matches_simpson () =
  let f x = 1. /. (1. +. (x *. x)) in
  check_float ~eps:1e-9 "atan integrand"
    (Integrate.simpson f 0. 1.)
    (Integrate.gl_pieces ~breakpoints:[ 0.3; 0.7 ] f 0. 1.)

let test_expectation_2d () =
  check_float ~eps:1e-8 "xy over unit square" 0.25
    (Integrate.expectation_2d ~breaks_x:[] ~breaks_y:[] (fun x y -> x *. y))

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let test_solve_2x2 () =
  let x = Linalg.solve [| [| 2.; 1. |]; [| 1.; 3. |] |] [| 5.; 10. |] in
  check_float "x0" 1. x.(0);
  check_float "x1" 3. x.(1)

let test_solve_3x3 () =
  let a = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |]; [| 7.; 8.; 10. |] |] in
  let b = [| 6.; 15.; 25. |] in
  let x = Linalg.solve a b in
  let back = Linalg.mat_vec a x in
  Array.iteri (fun i v -> check_float ~eps:1e-9 "residual" b.(i) v) back

let test_solve_singular () =
  (match Linalg.solve [| [| 1.; 2. |]; [| 2.; 4. |] |] [| 1.; 2. |] with
  | _ -> Alcotest.fail "expected Failure on a singular system"
  | exception Failure msg ->
      Alcotest.(check bool)
        "message names the singularity" true
        (String.length msg > 0
        && String.sub msg 0 21 = "Linalg.solve: singula"));
  match Linalg.solve_r [| [| 1.; 2. |]; [| 2.; 4. |] |] [| 1.; 2. |] with
  | Ok _ -> Alcotest.fail "expected Error Singular"
  | Error f ->
      Alcotest.(check bool)
        "structured Singular" true
        (f.Robust.reason = Robust.Singular)

let test_mat_ops () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let c = Linalg.mat_mul a b in
  check_float "mul" 2. c.(0).(0);
  check_float "mul" 1. c.(0).(1);
  let t = Linalg.transpose a in
  check_float "transpose" 3. t.(0).(1);
  check_float "dot" 11. (Linalg.vec_dot [| 1.; 2. |] [| 3.; 4. |]);
  check_float "norm_inf" 4. (Linalg.vec_norm_inf [| -4.; 3. |])

let test_lstsq () =
  (* Overdetermined consistent: y = 2x. *)
  let a = [| [| 1. |]; [| 2. |]; [| 3. |] |] in
  let b = [| 2.; 4.; 6. |] in
  let x = Linalg.solve_lstsq a b in
  check_float ~eps:1e-6 "slope" 2. x.(0)

let test_rank () =
  Alcotest.(check int) "full rank" 2
    (Linalg.rank_estimate [| [| 1.; 0. |]; [| 0.; 1. |] |]);
  Alcotest.(check int) "rank deficient" 1
    (Linalg.rank_estimate [| [| 1.; 2. |]; [| 2.; 4. |] |]);
  Alcotest.(check int) "rectangular" 2
    (Linalg.rank_estimate [| [| 1.; 0.; 1. |]; [| 0.; 1.; 1. |] |])

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

let test_simplex_basic () =
  match
    Simplex.maximize ~c:[| 1.; 1. |]
      ~a_ub:[| [| 1.; 2. |]; [| 1.; 0. |] |]
      ~b_ub:[| 4.; 3. |] ~a_eq:[||] ~b_eq:[||] ()
  with
  | Simplex.Optimal (v, x) ->
      check_float ~eps:1e-8 "objective" 3.5 v;
      check_float ~eps:1e-8 "x0" 3. x.(0);
      check_float ~eps:1e-8 "x1" 0.5 x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_equality () =
  match
    Simplex.maximize ~c:[| 0.; 1. |] ~a_ub:[||] ~b_ub:[||]
      ~a_eq:[| [| 1.; 1. |] |] ~b_eq:[| 2. |] ()
  with
  | Simplex.Optimal (v, x) ->
      check_float ~eps:1e-8 "objective" 2. v;
      check_float ~eps:1e-8 "x1 = 2" 2. x.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_simplex_infeasible () =
  match
    Simplex.maximize ~c:[| 1. |] ~a_ub:[||] ~b_ub:[||]
      ~a_eq:[| [| 1. |]; [| 1. |] |] ~b_eq:[| 1.; 2. |] ()
  with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  match
    Simplex.maximize ~c:[| 1. |] ~a_ub:[||] ~b_ub:[||] ~a_eq:[||] ~b_eq:[||] ()
  with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* -x ≤ -1  ⇔  x ≥ 1; maximize -x ⇒ x = 1. *)
  match
    Simplex.maximize ~c:[| -1. |] ~a_ub:[| [| -1. |] |] ~b_ub:[| -1. |]
      ~a_eq:[||] ~b_eq:[||] ()
  with
  | Simplex.Optimal (v, x) ->
      check_float ~eps:1e-8 "objective" (-1.) v;
      check_float ~eps:1e-8 "x" 1. x.(0)
  | _ -> Alcotest.fail "expected optimal"

let test_solve_eq_nonneg () =
  (match Simplex.solve_eq_nonneg [| [| 1.; 1. |] |] [| 1. |] with
  | Some x ->
      check_float ~eps:1e-8 "sums to 1" 1. (x.(0) +. x.(1));
      Alcotest.(check bool) "nonneg" true (x.(0) >= -1e-9 && x.(1) >= -1e-9)
  | None -> Alcotest.fail "expected feasible");
  match Simplex.solve_eq_nonneg [| [| 1.; 1. |] |] [| -1. |] with
  | None -> ()
  | Some _ -> Alcotest.fail "expected infeasible (x ≥ 0 cannot sum to −1)"

let test_simplex_degenerate () =
  (* Redundant equality rows must not break phase 1. *)
  match
    Simplex.maximize ~c:[| 1.; 0. |] ~a_ub:[| [| 1.; 0. |] |] ~b_ub:[| 2. |]
      ~a_eq:[| [| 1.; 1. |]; [| 2.; 2. |] |] ~b_eq:[| 3.; 6. |] ()
  with
  | Simplex.Optimal (v, _) -> check_float ~eps:1e-8 "objective" 2. v
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Qp                                                                  *)
(* ------------------------------------------------------------------ *)

let test_qp_unconstrained () =
  (* min (x−3)² + (y−4)² with x,y ≥ 0: optimum at targets. *)
  match
    Qp.least_squares_targets ~weights:[| 1.; 1. |] ~targets:[| 3.; 4. |]
      ~a_ub:[||] ~b_ub:[||] ~a_eq:[||] ~b_eq:[||] ()
  with
  | Some r ->
      check_float ~eps:1e-7 "x" 3. r.Qp.x.(0);
      check_float ~eps:1e-7 "y" 4. r.Qp.x.(1);
      check_float ~eps:1e-7 "objective" 0. r.Qp.objective
  | None -> Alcotest.fail "expected feasible"

let test_qp_equality () =
  (* min (x−1)² + (y−1)² s.t. x + y = 1 → (1/2, 1/2). *)
  match
    Qp.least_squares_targets ~weights:[| 1.; 1. |] ~targets:[| 1.; 1. |]
      ~a_ub:[||] ~b_ub:[||] ~a_eq:[| [| 1.; 1. |] |] ~b_eq:[| 1. |] ()
  with
  | Some r ->
      check_float ~eps:1e-7 "x" 0.5 r.Qp.x.(0);
      check_float ~eps:1e-7 "y" 0.5 r.Qp.x.(1)
  | None -> Alcotest.fail "expected feasible"

let test_qp_active_inequality () =
  (* min (x−2)² s.t. x ≤ 1 → x = 1. *)
  match
    Qp.least_squares_targets ~weights:[| 1. |] ~targets:[| 2. |]
      ~a_ub:[| [| 1. |] |] ~b_ub:[| 1. |] ~a_eq:[||] ~b_eq:[||] ()
  with
  | Some r -> check_float ~eps:1e-7 "clamped" 1. r.Qp.x.(0)
  | None -> Alcotest.fail "expected feasible"

let test_qp_nonneg_bound () =
  (* min (x+1)²: unconstrained optimum −1 is cut by x ≥ 0. *)
  match
    Qp.least_squares_targets ~weights:[| 1. |] ~targets:[| -1. |] ~a_ub:[||]
      ~b_ub:[||] ~a_eq:[||] ~b_eq:[||] ()
  with
  | Some r -> check_float ~eps:1e-7 "clamped at 0" 0. r.Qp.x.(0)
  | None -> Alcotest.fail "expected feasible"

let test_qp_infeasible () =
  match
    Qp.least_squares_targets ~weights:[| 1. |] ~targets:[| 0. |] ~a_ub:[||]
      ~b_ub:[||] ~a_eq:[| [| 1. |] |] ~b_eq:[| -2. |] ()
  with
  | None -> ()
  | Some _ -> Alcotest.fail "expected infeasible (x ≥ 0 vs x = −2)"

let test_qp_or_u_construction () =
  (* The OR^(U) batch QP at p1 = p2 = p < 1/2 (see Section 4.2): variables
     x1 = est(S={1},1), y1 = est(S={1,2},(1,0)), x2, y2 — the optimum is
     x = 1/(2p(1−p)), y = 1/(2p²). *)
  let p = 0.3 in
  let pq = p *. (1. -. p) and pp = p *. p in
  let a_eq =
    [| [| pq; pp; 0.; 0. |]; [| 0.; 0.; pq; pp |] |]
  in
  let b_eq = [| 1.; 1. |] in
  (* nonnegativity-preservation for (1,1): pq·x1 + pq·x2 ≤ 1. *)
  let a_ub = [| [| pq; 0.; pq; 0. |] |] in
  let b_ub = [| 1. |] in
  match
    Qp.least_squares_targets
      ~weights:[| pq; pp; pq; pp |]
      ~targets:[| 1.; 1.; 1.; 1. |] ~a_ub ~b_ub ~a_eq ~b_eq ()
  with
  | Some r ->
      check_float ~eps:1e-6 "x1" (1. /. (2. *. pq)) r.Qp.x.(0);
      check_float ~eps:1e-6 "y1" (1. /. (2. *. pp)) r.Qp.x.(1);
      check_float ~eps:1e-6 "x2" (1. /. (2. *. pq)) r.Qp.x.(2)
  | None -> Alcotest.fail "expected feasible"

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let prop_float_range =
  qtest "prng float stays in [0,1)" QCheck.small_int (fun s ->
      let r = Prng.create ~seed:s () in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Prng.float r in
        if x < 0. || x >= 1. then ok := false
      done;
      !ok)

let prop_acc_var_nonneg =
  qtest "Welford variance is nonnegative"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let a = Stats.Acc.create () in
      List.iter (Stats.Acc.add a) xs;
      xs = [] || Stats.Acc.var a >= -1e-12)

let prop_quantile_bounds =
  qtest "quantile within min..max"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.))
        (float_bound_inclusive 1.))
    (fun (xs, q) ->
      match xs with
      | [] -> true
      | _ ->
          let a = Array.of_list xs in
          let v = Stats.quantile a q in
          let mn = Array.fold_left Float.min infinity a in
          let mx = Array.fold_left Float.max neg_infinity a in
          v >= mn -. 1e-9 && v <= mx +. 1e-9)

let prop_pow_int =
  qtest "pow_int agrees with **"
    QCheck.(pair (float_bound_inclusive 3.) (int_bound 20))
    (fun (x, n) ->
      let x = 0.1 +. abs_float x in
      Special.float_equal ~eps:1e-9 (Special.pow_int x n) (x ** float_of_int n))

let prop_solve_roundtrip =
  qtest ~count:100 "linalg solve round-trips" QCheck.small_int (fun seed ->
      let r = Prng.create ~seed () in
      let n = 1 + Prng.int r 5 in
      (* Diagonally dominant → well conditioned. *)
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i = j then 10. +. Prng.float r else Prng.float r))
      in
      let b = Array.init n (fun _ -> Prng.float r *. 10.) in
      let x = Linalg.solve a b in
      let back = Linalg.mat_vec a x in
      Array.for_all2 (fun u v -> Special.float_equal ~eps:1e-8 u v) back b)

let prop_simplex_constructed_feasible =
  qtest ~count:100 "simplex finds constructed-feasible systems feasible"
    QCheck.small_int
    (fun seed ->
      let r = Prng.create ~seed () in
      let n = 2 + Prng.int r 4 in
      let m = 1 + Prng.int r 3 in
      (* Pick x0 ≥ 0, random A, set b = A x0 ⇒ feasible by construction. *)
      let x0 = Array.init n (fun _ -> Prng.float r *. 5.) in
      let a =
        Array.init m (fun _ -> Array.init n (fun _ -> (Prng.float r *. 4.) -. 2.))
      in
      let b = Array.map (fun row -> Linalg.vec_dot row x0) a in
      Simplex.solve_eq_nonneg a b <> None)

let test_qp_duplicate_constraints () =
  (* Regression: duplicate inequality rows used to cycle the active-set
     loop (symmetric designer batches produce many exact duplicates). *)
  let row = [| 1.; 1. |] in
  match
    Qp.least_squares_targets ~weights:[| 1.; 1. |] ~targets:[| 2.; 2. |]
      ~a_ub:[| row; row; row; Array.copy row |]
      ~b_ub:[| 1.; 1.; 1.; 1. |] ~a_eq:[||] ~b_eq:[||] ()
  with
  | Some r ->
      check_float ~eps:1e-6 "x" 0.5 r.Qp.x.(0);
      check_float ~eps:1e-6 "y" 0.5 r.Qp.x.(1)
  | None -> Alcotest.fail "expected feasible"

let test_qp_redundant_equalities () =
  (* Equality + an identical inequality: must not produce a singular
     KKT failure. *)
  match
    Qp.least_squares_targets ~weights:[| 1. |] ~targets:[| 3. |]
      ~a_ub:[| [| 1. |] |] ~b_ub:[| 2. |] ~a_eq:[| [| 1. |] |] ~b_eq:[| 2. |] ()
  with
  | Some r -> check_float ~eps:1e-6 "pinned" 2. r.Qp.x.(0)
  | None -> Alcotest.fail "expected feasible"

let prop_qp_respects_constraints =
  qtest ~count:100 "QP solution satisfies its constraints" QCheck.small_int
    (fun seed ->
      let r = Prng.create ~seed () in
      let n = 2 + Prng.int r 3 in
      let targets = Array.init n (fun _ -> (Prng.float r *. 4.) -. 1.) in
      let a_eq = [| Array.make n 1. |] in
      let b_eq = [| 1. +. Prng.float r |] in
      match
        Qp.least_squares_targets ~weights:(Array.make n 1.) ~targets
          ~a_ub:[||] ~b_ub:[||] ~a_eq ~b_eq ()
      with
      | None -> false
      | Some { Qp.x; _ } ->
          Special.float_equal ~eps:1e-6 (Array.fold_left ( +. ) 0. x) b_eq.(0)
          && Array.for_all (fun v -> v >= -1e-7) x)

(* ------------------------------------------------------------------ *)
(* Acc.merge (parallel Welford)                                        *)
(* ------------------------------------------------------------------ *)

let rel_close ?(tol = 1e-9) a b =
  (Float.is_nan a && Float.is_nan b)
  || abs_float (a -. b) <= tol *. (1. +. Float.max (abs_float a) (abs_float b))

let prop_acc_merge_of_splits =
  qtest ~count:500 "Acc.merge of splits = sequential accumulator"
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 60) (float_range (-1000.) 1000.))
        (list_of_size Gen.(0 -- 60) (float_range (-1000.) 1000.)))
    (fun (xs, ys) ->
      let seq = Stats.Acc.create () in
      List.iter (Stats.Acc.add seq) (xs @ ys);
      let a = Stats.Acc.create () and b = Stats.Acc.create () in
      List.iter (Stats.Acc.add a) xs;
      List.iter (Stats.Acc.add b) ys;
      let m = Stats.Acc.merge a b in
      Stats.Acc.count m = Stats.Acc.count seq
      && rel_close (Stats.Acc.mean m) (Stats.Acc.mean seq)
      && rel_close (Stats.Acc.var m) (Stats.Acc.var seq)
      && (xs = [] && ys = []
         || Stats.Acc.min m = Stats.Acc.min seq
            && Stats.Acc.max m = Stats.Acc.max seq))

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let with_pool domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let pool_sizes = [ 1; 2; 4 ]

let test_pool_parallel_map () =
  let input = Array.init 137 (fun i -> i) in
  let f i = float_of_int (i * i) +. 0.5 in
  let expected = Array.map f input in
  List.iter
    (fun d ->
      with_pool d (fun p ->
          Alcotest.(check (array (float 0.)))
            (Printf.sprintf "map, %d domains" d)
            expected
            (Pool.parallel_map p f input)))
    pool_sizes

let test_pool_for_reduce_bit_identical () =
  (* Values chosen so float addition is order sensitive; the pool must
     reduce left-to-right regardless of its size. *)
  let n = 1000 in
  let body i = 1. /. float_of_int (i + 1) in
  let seq = ref 0. in
  for i = 0 to n - 1 do
    seq := !seq +. body i
  done;
  List.iter
    (fun d ->
      with_pool d (fun p ->
          let s =
            Pool.parallel_for_reduce p ~n ~body ~init:0. ~combine:( +. )
          in
          if s <> !seq then
            Alcotest.failf "%d domains: %.17g <> %.17g" d s !seq))
    pool_sizes

let test_pool_map_streams_deterministic () =
  let draw rng _i =
    let acc = ref 0. in
    for _ = 1 to 100 do
      acc := !acc +. Prng.float rng
    done;
    !acc
  in
  let reference =
    Array.init 17 (fun i -> draw (Prng.substream ~master:42 i) i)
  in
  List.iter
    (fun d ->
      with_pool d (fun p ->
          let got = Pool.map_streams p ~master:42 ~n:17 draw in
          if got <> reference then
            Alcotest.failf "map_streams differs with %d domains" d))
    pool_sizes

let test_pool_nested () =
  with_pool 3 (fun p ->
      let outer =
        Pool.parallel_init p ~n:4 (fun i ->
            Array.fold_left ( + ) 0
              (Pool.parallel_init p ~n:5 (fun j -> (10 * i) + j)))
      in
      Alcotest.(check (array int))
        "nested totals"
        (Array.init 4 (fun i -> (50 * i) + 10))
        outer)

exception Boom

let test_pool_exception () =
  with_pool 2 (fun p ->
      match
        Pool.parallel_init p ~n:8 (fun i -> if i = 5 then raise Boom else i)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom -> ();
      (* the pool stays usable after a failed run *)
      Alcotest.(check (array int))
        "pool survives" (Array.init 6 Fun.id)
        (Pool.parallel_init p ~n:6 Fun.id))

let test_pool_shutdown_inline () =
  let p = Pool.create ~domains:4 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* idempotent *)
  Alcotest.(check (array int))
    "inline after shutdown" (Array.init 9 Fun.id)
    (Pool.parallel_init p ~n:9 Fun.id)

(* A pool of n domains counts its caller: its tasks run on at most n
   distinct domains. Each task spins long enough that every spawned
   worker picks some up. *)
let test_pool_domain_count () =
  List.iter
    (fun d ->
      with_pool d (fun p ->
          let ids =
            Pool.parallel_init p ~n:64 (fun i ->
                let x = ref (float_of_int i) in
                for _ = 1 to 200_000 do
                  x := Float.rem ((!x *. 1.000001) +. 1.) 1e9
                done;
                ignore (Sys.opaque_identity !x);
                (Domain.self () :> int))
          in
          let distinct = List.sort_uniq Int.compare (Array.to_list ids) in
          if List.length distinct > d then
            Alcotest.failf "%d-domain pool ran tasks on %d domains" d
              (List.length distinct)))
    pool_sizes

(* ------------------------------------------------------------------ *)
(* Memo + chunk granularity                                            *)
(* ------------------------------------------------------------------ *)

let int_memo ~capacity name =
  Memo.create ~capacity ~name ~hash:Hashtbl.hash ~equal:Int.equal ()

let test_memo_hit_miss () =
  let m = int_memo ~capacity:4 "test.hit_miss" in
  let computed = ref 0 in
  let f k =
    Memo.find_or_add m k (fun () ->
        incr computed;
        k * k)
  in
  Alcotest.(check int) "first" 9 (f 3);
  Alcotest.(check int) "second" 9 (f 3);
  Alcotest.(check int) "computed once" 1 !computed;
  let s = Memo.stats m in
  Alcotest.(check int) "hits" 1 s.Memo.hits;
  Alcotest.(check int) "misses" 1 s.Memo.misses;
  Alcotest.(check int) "entries" 1 s.Memo.entries;
  Memo.clear m;
  Alcotest.(check int) "cleared" 0 (Memo.stats m).Memo.entries;
  Alcotest.(check int) "recompute after clear" 9 (f 3);
  Alcotest.(check int) "computed again" 2 !computed

let test_memo_bounded_second_chance () =
  let m = int_memo ~capacity:4 "test.clock" in
  let f k = Memo.find_or_add m k (fun () -> k * 10) in
  List.iter (fun k -> ignore (f k)) [ 1; 2; 3; 4 ];
  (* Touch 1: its reference bit grants a second chance at the hand. *)
  ignore (f 1);
  ignore (f 5);
  let s = Memo.stats m in
  Alcotest.(check int) "entries stay bounded" 4 s.Memo.entries;
  Alcotest.(check int) "one eviction" 1 s.Memo.evictions;
  Alcotest.(check (option int)) "recently-hit key survives" (Some 10)
    (Memo.find_opt m 1);
  Alcotest.(check (option int)) "cold key evicted" None (Memo.find_opt m 2);
  Alcotest.(check (option int)) "newcomer resident" (Some 50)
    (Memo.find_opt m 5)

let test_memo_cross_domain () =
  let m = int_memo ~capacity:64 "test.cross_domain" in
  with_pool 4 (fun p ->
      let out =
        Pool.parallel_init p ~n:200 (fun i ->
            Memo.find_or_add m (i mod 10) (fun () -> (i mod 10) * 7))
      in
      Array.iteri
        (fun i v -> Alcotest.(check int) "shared value" (i mod 10 * 7) v)
        out);
  let s = Memo.stats m in
  Alcotest.(check int) "entries = distinct keys" 10 s.Memo.entries;
  Alcotest.(check int) "every lookup accounted" 200 (s.Memo.hits + s.Memo.misses);
  (* Lost compute races are benign but each key misses at least once. *)
  Alcotest.(check bool) "misses cover the key set" true (s.Memo.misses >= 10)

(* clear_all is the "fresh process" reset used between benchmark phases:
   it must drop entries AND zero the stats counters atomically. The old
   clear_all dropped entries only, so hit/miss history leaked across
   phases. *)
let test_memo_purge_resets_stats () =
  let m = int_memo ~capacity:4 "test.purge" in
  let f k = Memo.find_or_add m k (fun () -> k * 2) in
  List.iter (fun k -> ignore (f k)) [ 1; 2; 3; 4; 5; 1; 2 ];
  let s = Memo.stats m in
  Alcotest.(check bool) "misses accrued" true (s.Memo.misses >= 5);
  Alcotest.(check bool) "evictions accrued" true (s.Memo.evictions >= 1);
  Memo.clear_all ();
  let s = Memo.stats m in
  Alcotest.(check int) "entries zero" 0 s.Memo.entries;
  Alcotest.(check int) "hits zero" 0 s.Memo.hits;
  Alcotest.(check int) "misses zero" 0 s.Memo.misses;
  Alcotest.(check int) "evictions zero" 0 s.Memo.evictions;
  Alcotest.(check int) "bytes zero" 0 s.Memo.bytes_estimate;
  (* The cache stays usable and accounting restarts from zero. *)
  Alcotest.(check int) "recompute" 6 (f 3);
  Alcotest.(check int) "one miss after purge" 1 (Memo.stats m).Memo.misses

let test_memo_validate () =
  let m = int_memo ~capacity:8 "test.validate" in
  let f k = Memo.find_or_add m k (fun () -> k * 3) in
  let check_ok ctx =
    match Memo.validate m with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: bookkeeping drift: %s" ctx msg
  in
  check_ok "empty";
  List.iter (fun k -> ignore (f k)) [ 1; 2; 3; 4 ];
  check_ok "after inserts";
  (* Push past capacity so CLOCK evictions exercise the byte accounting. *)
  List.iter (fun k -> ignore (f k)) [ 5; 6; 7; 8; 9; 10; 11; 12; 13 ];
  Alcotest.(check bool)
    "evictions happened" true ((Memo.stats m).Memo.evictions > 0);
  check_ok "after evictions";
  Memo.purge m;
  check_ok "after purge";
  ignore (f 42);
  check_ok "after reuse"

let test_pool_grain_bit_identical () =
  let n = 512 in
  let input = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let f x = (x *. 3.7) +. sqrt x in
  let expected = Array.map f input in
  let seq_sum = Array.fold_left (fun a x -> a +. f x) 0. input in
  List.iter
    (fun d ->
      with_pool d (fun p ->
          List.iter
            (fun g ->
              Alcotest.(check (array (float 0.)))
                (Printf.sprintf "map, %d domains, grain %d" d g)
                expected
                (Pool.parallel_map ~grain:g p f input);
              let s =
                Pool.parallel_for_reduce ~grain:g p ~n
                  ~body:(fun i -> f input.(i))
                  ~init:0. ~combine:( +. )
              in
              if s <> seq_sum then
                Alcotest.failf "reduce differs: %d domains, grain %d" d g)
            [ 1; 3; 64; n; 100_000 ]))
    pool_sizes

let test_pool_grain_invalid () =
  with_pool 2 (fun p ->
      Alcotest.check_raises "grain 0"
        (Invalid_argument "Pool: grain must be positive") (fun () ->
          ignore (Pool.parallel_map ~grain:0 p Fun.id [| 1 |])))

(* Every chunk layout must partition [0, n) exactly: contiguous, nonempty
   chunks covering the range once. The boundary cases (n = 0, n smaller
   than the domain count, grain larger than n) used to be able to emit
   empty or out-of-range chunks. *)
let check_chunk_partition ~ctx ~n ranges =
  let rec go prev = function
    | [] ->
        Alcotest.(check int) (ctx ^ ": chunks end at n") n prev
    | (lo, hi) :: rest ->
        Alcotest.(check int) (ctx ^ ": contiguous") prev lo;
        if hi <= lo then
          Alcotest.failf "%s: empty chunk [%d, %d)" ctx lo hi;
        go hi rest
  in
  go 0 ranges

let test_pool_chunks_boundaries () =
  with_pool 4 (fun p ->
      (* n = 0: no work, no chunks — with or without an explicit grain. *)
      Alcotest.(check (list (pair int int))) "n=0" [] (Pool.chunks p 0);
      Alcotest.(check (list (pair int int)))
        "n=0, grain" [] (Pool.chunks ~grain:16 p 0);
      (* n = 1 and n < domains: every element lands in exactly one chunk. *)
      check_chunk_partition ~ctx:"n=1" ~n:1 (Pool.chunks p 1);
      check_chunk_partition ~ctx:"n<domains" ~n:3 (Pool.chunks p 3);
      (* grain > n collapses to a single chunk covering [0, n). *)
      Alcotest.(check (list (pair int int)))
        "grain>n" [ (0, 5) ] (Pool.chunks ~grain:100 p 5);
      (* grain = n is also a single chunk. *)
      Alcotest.(check (list (pair int int)))
        "grain=n" [ (0, 7) ] (Pool.chunks ~grain:7 p 7);
      (* General layouts keep the partition invariant. *)
      List.iter
        (fun (n, grain) ->
          let ranges =
            match grain with
            | None -> Pool.chunks p n
            | Some g -> Pool.chunks ~grain:g p n
          in
          check_chunk_partition
            ~ctx:(Printf.sprintf "n=%d grain=%s" n
                    (match grain with None -> "-" | Some g -> string_of_int g))
            ~n ranges)
        [ (1, None); (4, None); (5, Some 2); (17, Some 3); (64, Some 64);
          (65, Some 64); (1000, None); (1000, Some 1) ];
      (* Invalid inputs are rejected up front, not mangled into chunks. *)
      Alcotest.check_raises "n < 0" (Invalid_argument "Pool: negative length")
        (fun () -> ignore (Pool.chunks p (-1)));
      Alcotest.check_raises "grain 0"
        (Invalid_argument "Pool: grain must be positive") (fun () ->
          ignore (Pool.chunks ~grain:0 p 8)))

let test_prng_substream_independent_of_order () =
  let a = Prng.substream ~master:7 3 in
  (* consuming other substreams first must not affect substream 3 *)
  ignore (Prng.bits64 (Prng.substream ~master:7 0));
  ignore (Prng.bits64 (Prng.substream ~master:7 1));
  let b = Prng.substream ~master:7 3 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same substream" (Prng.bits64 a) (Prng.bits64 b)
  done;
  Alcotest.(check bool)
    "distinct substreams differ" true
    (Prng.bits64 (Prng.substream ~master:7 4)
    <> Prng.bits64 (Prng.substream ~master:7 5))

(* ------------------------------------------------------------------ *)
(* Degenerate solver inputs: structured failures, never exceptions     *)
(* ------------------------------------------------------------------ *)

let reason_of = function
  | Ok _ -> Alcotest.fail "expected a structured failure"
  | Error f -> f.Robust.reason

let test_qp_r_infeasible () =
  (* x ≥ 0 vs x = −2: the phase-1 LP must report Infeasible. *)
  match
    Qp.minimize_r ~q:[| 2. |] ~c:[| 0. |] ~a_ub:[||] ~b_ub:[||]
      ~a_eq:[| [| 1. |] |] ~b_eq:[| -2. |] ()
  with
  | Error { Robust.reason = Robust.Infeasible; solver = Robust.Qp_active_set; _ }
    ->
      ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Robust.to_string f)
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_qp_r_contradictory_eq () =
  (* Rank-deficient *and* inconsistent: x = 1 and x = 2. *)
  match
    Qp.minimize_r ~q:[| 2. |] ~c:[| 0. |] ~a_ub:[||] ~b_ub:[||]
      ~a_eq:[| [| 1. |]; [| 1. |] |]
      ~b_eq:[| 1.; 2. |] ()
  with
  | Error { Robust.reason = Robust.Infeasible; _ } -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Robust.to_string f)
  | Ok _ -> Alcotest.fail "expected infeasible"

let test_qp_r_redundant_eq_ok () =
  (* Rank-deficient but consistent duplicate rows must still solve. *)
  match
    Qp.minimize_r ~q:[| 2.; 2. |] ~c:[| 0.; 0. |] ~a_ub:[||] ~b_ub:[||]
      ~a_eq:[| [| 1.; 1. |]; [| 1.; 1. |] |]
      ~b_eq:[| 1.; 1. |] ()
  with
  | Ok r -> check_float "split evenly" 0.5 r.Qp.x.(0)
  | Error f -> Alcotest.failf "unexpected failure: %s" (Robust.to_string f)

let test_qp_r_invalid_inputs () =
  (match
     reason_of
       (Qp.minimize_r ~q:[| 0. |] ~c:[| 0. |] ~a_ub:[||] ~b_ub:[||] ~a_eq:[||]
          ~b_eq:[||] ())
   with
  | Robust.Invalid_input _ -> ()
  | r -> Alcotest.failf "q = 0: wrong reason %s" (Robust.reason_label r));
  (match
     reason_of
       (Qp.minimize_r ~q:[| 2. |] ~c:[| nan |] ~a_ub:[||] ~b_ub:[||] ~a_eq:[||]
          ~b_eq:[||] ())
   with
  | Robust.Non_finite _ -> ()
  | r -> Alcotest.failf "nan c: wrong reason %s" (Robust.reason_label r));
  match
    reason_of
      (Qp.minimize_r ~q:[| 2. |] ~c:[| 0. |] ~a_ub:[| [| infinity |] |]
         ~b_ub:[| 1. |] ~a_eq:[||] ~b_eq:[||] ())
  with
  | Robust.Non_finite _ -> ()
  | r -> Alcotest.failf "inf a_ub: wrong reason %s" (Robust.reason_label r)

let test_simplex_r_invalid_inputs () =
  match
    reason_of
      (Simplex.maximize_r ~c:[| nan |] ~a_ub:[| [| 1. |] |] ~b_ub:[| 1. |]
         ~a_eq:[||] ~b_eq:[||] ())
  with
  | Robust.Non_finite _ -> ()
  | r -> Alcotest.failf "nan c: wrong reason %s" (Robust.reason_label r)

let test_simpson_r_zero_width () =
  match reason_of (Integrate.simpson_r (fun x -> x) 1. 1.) with
  | Robust.Invalid_input _ -> ()
  | r -> Alcotest.failf "wrong reason %s" (Robust.reason_label r)

let test_simpson_r_non_finite () =
  (match reason_of (Integrate.simpson_r (fun _ -> nan) 0. 1.) with
  | Robust.Non_finite _ -> ()
  | r -> Alcotest.failf "nan integrand: wrong reason %s" (Robust.reason_label r));
  match reason_of (Integrate.simpson_r (fun x -> x) 0. infinity) with
  | Robust.Non_finite _ -> ()
  | r -> Alcotest.failf "inf endpoint: wrong reason %s" (Robust.reason_label r)

let test_simpson_r_smooth_ok () =
  match Integrate.simpson_r sin 0. Float.pi with
  | Ok v -> check_float ~eps:1e-9 "∫ sin over [0,π]" 2. v
  | Error f -> Alcotest.failf "unexpected failure: %s" (Robust.to_string f)

let test_bisect_r_degenerate () =
  (match reason_of (Special.solve_bisect_r (fun x -> (x *. x) +. 1.) 0. 1.) with
  | Robust.Invalid_input _ -> ()
  | r -> Alcotest.failf "no sign change: wrong reason %s" (Robust.reason_label r));
  (match reason_of (Special.solve_bisect_r (fun _ -> nan) 0. 1.) with
  | Robust.Non_finite _ -> ()
  | r -> Alcotest.failf "nan f: wrong reason %s" (Robust.reason_label r));
  match Special.solve_bisect_r (fun x -> (x *. x) -. 2.) 0. 2. with
  | Ok root -> check_float ~eps:1e-10 "sqrt 2" (sqrt 2.) root
  | Error f -> Alcotest.failf "unexpected failure: %s" (Robust.to_string f)

let () =
  Alcotest.run "numerics"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float_open range" `Quick test_prng_float_open;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_prng_int_uniformity;
          Alcotest.test_case "bool balance" `Quick test_prng_bool_balance;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "int rejects 0" `Quick test_prng_int_invalid;
          Alcotest.test_case "xoshiro jump" `Quick test_xoshiro_jump_changes_state;
          Alcotest.test_case "splitmix injective" `Quick test_splitmix_mix_distinct;
          Alcotest.test_case "xoshiro/splitmix streams pinned" `Quick
            test_xoshiro_stream_pinned;
          Alcotest.test_case "float/int/bool/substream pinned" `Quick
            test_prng_samplers_pinned;
          Alcotest.test_case "monte_carlo moments pinned" `Quick
            test_monte_carlo_moments_pinned;
          Alcotest.test_case "generator step allocates nothing" `Quick
            test_prng_step_no_alloc;
          prop_float_range;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "salt sensitivity" `Quick test_hash_salt_sensitivity;
          Alcotest.test_case "key sensitivity" `Quick test_hash_key_sensitivity;
          Alcotest.test_case "string hashing" `Quick test_hash_string;
          Alcotest.test_case "to_unit range" `Quick test_to_unit_range;
          Alcotest.test_case "uniformity" `Quick test_uniform_int_uniformity;
          Alcotest.test_case "instance salts" `Quick test_salt_of_instance_distinct;
          Alcotest.test_case "combine order" `Quick test_combine_noncommutative;
        ] );
      ( "stats",
        [
          Alcotest.test_case "acc basic" `Quick test_acc_basic;
          Alcotest.test_case "acc empty" `Quick test_acc_empty;
          Alcotest.test_case "acc single" `Quick test_acc_single;
          Alcotest.test_case "acc merge" `Quick test_acc_merge;
          Alcotest.test_case "acc merge empty shard" `Quick
            test_acc_merge_empty;
          Alcotest.test_case "normal_ci n=0 guard" `Quick test_normal_ci_guard;
          prop_acc_merge_of_splits;
          Alcotest.test_case "correlation" `Quick test_cov_correlation;
          Alcotest.test_case "covariance value" `Quick test_cov_value;
          Alcotest.test_case "batch stats" `Quick test_batch_stats;
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "z_of_level" `Quick test_z_of_level;
          Alcotest.test_case "normal ci" `Quick test_normal_ci;
          Alcotest.test_case "quantile" `Quick test_quantile;
          Alcotest.test_case "chi square" `Quick test_chi_square;
          prop_acc_var_nonneg;
          prop_quantile_bounds;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel_map = Array.map" `Quick
            test_pool_parallel_map;
          Alcotest.test_case "for_reduce bit-identical" `Quick
            test_pool_for_reduce_bit_identical;
          Alcotest.test_case "map_streams scheduling-free" `Quick
            test_pool_map_streams_deterministic;
          Alcotest.test_case "nested parallelism" `Quick test_pool_nested;
          Alcotest.test_case "task exception propagates" `Quick
            test_pool_exception;
          Alcotest.test_case "shutdown runs inline" `Quick
            test_pool_shutdown_inline;
          Alcotest.test_case "n domains, caller included" `Quick
            test_pool_domain_count;
          Alcotest.test_case "substream order-independent" `Quick
            test_prng_substream_independent_of_order;
          Alcotest.test_case "grain keeps results bit-identical" `Quick
            test_pool_grain_bit_identical;
          Alcotest.test_case "grain must be positive" `Quick
            test_pool_grain_invalid;
          Alcotest.test_case "chunk layout boundaries" `Quick
            test_pool_chunks_boundaries;
        ] );
      ( "memo",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_memo_hit_miss;
          Alcotest.test_case "bounded CLOCK eviction" `Quick
            test_memo_bounded_second_chance;
          Alcotest.test_case "cross-domain sharing" `Quick
            test_memo_cross_domain;
          Alcotest.test_case "clear_all purges stats" `Quick
            test_memo_purge_resets_stats;
          Alcotest.test_case "byte/bucket audit" `Quick test_memo_validate;
        ] );
      ( "special",
        [
          Alcotest.test_case "binomial" `Quick test_binomial;
          Alcotest.test_case "binomial_int" `Quick test_binomial_int;
          Alcotest.test_case "pow_int" `Quick test_pow_int;
          Alcotest.test_case "log_binomial" `Quick test_log_binomial;
          Alcotest.test_case "falling" `Quick test_falling;
          Alcotest.test_case "harmonic" `Quick test_harmonic;
          Alcotest.test_case "bisection" `Quick test_solve_bisect;
          Alcotest.test_case "bisection guard" `Quick test_solve_bisect_no_sign_change;
          Alcotest.test_case "float_equal" `Quick test_float_equal;
          prop_pow_int;
        ] );
      ( "integrate",
        [
          Alcotest.test_case "simpson polynomials" `Quick test_simpson_poly;
          Alcotest.test_case "piecewise kink" `Quick test_simpson_pieces_kink;
          Alcotest.test_case "trapezoid" `Quick test_trapezoid;
          Alcotest.test_case "GL exactness" `Quick test_gauss_legendre_exactness;
          Alcotest.test_case "GL analytic" `Quick test_gauss_legendre_analytic;
          Alcotest.test_case "GL vs simpson" `Quick test_gl_pieces_matches_simpson;
          Alcotest.test_case "2d expectation" `Quick test_expectation_2d;
        ] );
      ( "linalg",
        [
          Alcotest.test_case "solve 2x2" `Quick test_solve_2x2;
          Alcotest.test_case "solve 3x3" `Quick test_solve_3x3;
          Alcotest.test_case "singular" `Quick test_solve_singular;
          Alcotest.test_case "matrix ops" `Quick test_mat_ops;
          Alcotest.test_case "least squares" `Quick test_lstsq;
          Alcotest.test_case "rank" `Quick test_rank;
          prop_solve_roundtrip;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic LP" `Quick test_simplex_basic;
          Alcotest.test_case "equality LP" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "eq nonneg" `Quick test_solve_eq_nonneg;
          Alcotest.test_case "degenerate rows" `Quick test_simplex_degenerate;
          prop_simplex_constructed_feasible;
        ] );
      ( "qp",
        [
          Alcotest.test_case "unconstrained" `Quick test_qp_unconstrained;
          Alcotest.test_case "equality projection" `Quick test_qp_equality;
          Alcotest.test_case "active inequality" `Quick test_qp_active_inequality;
          Alcotest.test_case "nonneg bound" `Quick test_qp_nonneg_bound;
          Alcotest.test_case "infeasible" `Quick test_qp_infeasible;
          Alcotest.test_case "OR^(U) construction" `Quick test_qp_or_u_construction;
          Alcotest.test_case "duplicate rows (regression)" `Quick test_qp_duplicate_constraints;
          Alcotest.test_case "redundant equality" `Quick test_qp_redundant_equalities;
          prop_qp_respects_constraints;
        ] );
      ( "degenerate inputs",
        [
          Alcotest.test_case "qp_r infeasible" `Quick test_qp_r_infeasible;
          Alcotest.test_case "qp_r contradictory eq" `Quick
            test_qp_r_contradictory_eq;
          Alcotest.test_case "qp_r redundant eq ok" `Quick
            test_qp_r_redundant_eq_ok;
          Alcotest.test_case "qp_r invalid inputs" `Quick
            test_qp_r_invalid_inputs;
          Alcotest.test_case "simplex_r invalid inputs" `Quick
            test_simplex_r_invalid_inputs;
          Alcotest.test_case "simpson_r zero width" `Quick
            test_simpson_r_zero_width;
          Alcotest.test_case "simpson_r non-finite" `Quick
            test_simpson_r_non_finite;
          Alcotest.test_case "simpson_r smooth" `Quick test_simpson_r_smooth_ok;
          Alcotest.test_case "bisect_r degenerate" `Quick
            test_bisect_r_degenerate;
        ] );
    ]
