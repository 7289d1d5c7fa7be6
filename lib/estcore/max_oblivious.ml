module O = Sampling.Outcome.Oblivious

type outcome = O.t

let determining_vector_l (o : outcome) =
  let vals = O.sampled_values o in
  let m = List.fold_left Float.max 0. vals in
  Array.map (function Some v -> v | None -> m) o.values

let check_r2 (o : outcome) =
  if O.r o <> 2 then invalid_arg "Max_oblivious: expected r = 2 outcome"

(* Eq. (12): for determining vector with larger entry [hi] (sampled with
   probability [phi]) and smaller entry [lo],
     est = hi/(phi·q) − lo·(1−phi)/(phi·q),  q = p1 + p2 − p1·p2. *)
let l_r2 (o : outcome) =
  check_r2 o;
  match (o.values.(0), o.values.(1)) with
  | None, None -> 0.
  | _ ->
      let phi = determining_vector_l o in
      let p1 = o.probs.(0) and p2 = o.probs.(1) in
      let q = p1 +. p2 -. (p1 *. p2) in
      if phi.(0) >= phi.(1) then
        (phi.(0) /. (p1 *. q)) -. (phi.(1) *. (1. -. p1) /. (p1 *. q))
      else (phi.(1) /. (p2 *. q)) -. (phi.(0) *. (1. -. p2) /. (p2 *. q))

module Coeffs = struct
  type t = {
    r : int;
    p : float;
    alpha : float array;
    prefix : float array;
    (* [alpha] flattened into an unboxed float array: the flat evaluator
       reads coefficients without pointer-chasing boxed floats. Same
       values as [alpha], element for element. *)
    alpha_fa : floatarray;
  }

  let r t = t.r
  let p t = t.p
  let alpha t = t.alpha
  let prefix_sums t = t.prefix

  (* Theorem 4.2 / Algorithm 3 COEFF. Arrays are 1-indexed internally
     (slot 0 unused) to mirror the paper. *)
  let derive ~r ~p =
    if r < 1 then invalid_arg "Coeffs.compute: r must be >= 1";
    if p <= 0. || p > 1. then invalid_arg "Coeffs.compute: p must be in (0,1]";
    let a = Array.make (r + 1) 0. in
    let qp = 1. -. p in
    let one_minus_q_pow n = 1. -. Numerics.Special.pow_int qp n in
    a.(r) <- 1. /. one_minus_q_pow r;
    for k = 0 to r - 2 do
      let t = ref 0. in
      for l = 1 to k do
        t :=
          !t
          +. Numerics.Special.binomial k l
             *. Numerics.Special.pow_int (qp /. p) l
             *. (a.(r - k + l) -. (one_minus_q_pow (r - k - 1) *. a.(r - k + l - 1)))
      done;
      a.(r - k - 1) <- (a.(r - k) +. !t) /. one_minus_q_pow (r - k - 1)
    done;
    let alpha =
      Array.init r (fun i -> if i = 0 then a.(1) else a.(i + 1) -. a.(i))
    in
    {
      r;
      p;
      alpha;
      prefix = Array.init r (fun i -> a.(i + 1));
      alpha_fa = Float.Array.init r (fun i -> alpha.(i));
    }

  (* Monomorphic key hash: mixes [r] with the IEEE bit pattern of [p].
     Consistent with the [Float.equal] in [equal] on the valid domain
     p ∈ (0,1] (no −0/NaN, so bitwise-distinct ⇒ not [Float.equal]). *)
  let hash_key (r, p) =
    (r * 0x9e3779b1) lxor Int64.to_int (Int64.bits_of_float p)

  (* (r, p) → coefficient table, shared across sweeps and domains. *)
  let cache : (int * float, t) Numerics.Memo.t =
    Numerics.Memo.create ~capacity:64 ~name:"max_oblivious.coeffs"
      ~hash:hash_key
      ~equal:(fun (r1, p1) (r2, p2) -> r1 = r2 && Float.equal p1 p2)
      ()

  let compute ~r ~p =
    if r < 1 then invalid_arg "Coeffs.compute: r must be >= 1";
    if p <= 0. || p > 1. then invalid_arg "Coeffs.compute: p must be in (0,1]";
    Numerics.Memo.find_or_add cache (r, p) (fun () -> derive ~r ~p)

  let lemma42_holds t =
    let ht_coeff = 1. /. Numerics.Special.pow_int t.p t.r in
    t.alpha.(0) <= ht_coeff +. 1e-9
    && Array.for_all (fun a -> a < 1e-12) (Array.sub t.alpha 1 (t.r - 1))
end

let l_uniform (c : Coeffs.t) (o : outcome) =
  let r = O.r o in
  if r <> Coeffs.r c then invalid_arg "Max_oblivious.l_uniform: r mismatch";
  let cp = c.Coeffs.p in
  for i = 0 to r - 1 do
    (* [p = cp] first: [float_equal] boxes both arguments on every call. *)
    let p = o.probs.(i) in
    if not (p = cp || Numerics.Special.float_equal p cp) then
      invalid_arg "Max_oblivious.l_uniform: non-uniform probabilities"
  done;
  let s = ref 0 in
  for i = 0 to r - 1 do
    match o.values.(i) with Some _ -> incr s | None -> ()
  done;
  let s = !s in
  if s = 0 then 0.
  else begin
    (* The |S| sampled values, sorted non-increasingly by insertion
       under [Float.compare] (stable, the order of
       [List.sort (fun a b -> Float.compare b a)]). *)
    let z = Array.create_float s in
    let k = ref 0 in
    for i = 0 to r - 1 do
      match o.values.(i) with
      | Some v ->
          let m = ref !k in
          while !m > 0 && Float.compare z.(!m - 1) v < 0 do
            z.(!m) <- z.(!m - 1);
            decr m
          done;
          z.(!m) <- v;
          incr k
      | None -> ()
    done;
    (* Sorted determining vector: the maximum replicated in the first
       r − |S| slots, the sorted sampled values in the last |S|. *)
    let alpha = c.Coeffs.alpha in
    let acc = ref 0. in
    for i = 0 to r - 1 do
      let u = if i < r - s then z.(0) else z.(i - (r - s)) in
      acc := !acc +. (alpha.(i) *. u)
    done;
    !acc
  end

(* r = 3, arbitrary probabilities: Theorem 4.1's prefix sums instantiated
   from eqs. (16) and (18). The estimate on an outcome is Σ α_i(q)·φ_{π_i}
   with φ the determining vector sorted non-increasingly, π its sorting
   permutation, and q = π(p). *)
let l_r3 (o : outcome) =
  if O.r o <> 3 then invalid_arg "Max_oblivious.l_r3: r = 3 only";
  if O.sampled_values o = [] then 0.
  else begin
    let phi = determining_vector_l o in
    let p = o.probs in
    (* Sorting permutation of φ (stable: ties keep index order — the
       estimate is invariant to the choice by Theorem 4.1's symmetry). *)
    let idx = [| 0; 1; 2 |] in
    Array.sort
      (fun a b ->
        match Float.compare phi.(b) phi.(a) with 0 -> Int.compare a b | c -> c)
      idx;
    let q = Array.map (fun i -> p.(i)) idx in
    let a3 =
      1. /. (1. -. ((1. -. q.(0)) *. (1. -. q.(1)) *. (1. -. q.(2))))
    in
    let a2 = a3 /. (1. -. ((1. -. q.(0)) *. (1. -. q.(1)))) in
    (* A₂ with the last two probabilities exchanged. *)
    let a2' = a3 /. (1. -. ((1. -. q.(0)) *. (1. -. q.(2)))) in
    let a1 = (a2 +. a2' -. a3) /. q.(0) in
    let alpha = [| a1; a2 -. a1; a3 -. a2 |] in
    let acc = ref 0. in
    for i = 0 to 2 do
      acc := !acc +. (alpha.(i) *. phi.(idx.(i)))
    done;
    !acc
  end

let l (o : outcome) =
  if O.r o = 2 then l_r2 o
  else if O.r o = 3 then l_r3 o
  else begin
    let p = o.probs.(0) in
    Array.iter
      (fun pi ->
        if not (Numerics.Special.float_equal pi p) then
          invalid_arg "Max_oblivious.l: r > 3 requires uniform probabilities")
      o.probs;
    l_uniform (Coeffs.compute ~r:(O.r o) ~p) o
  end

module General = struct
  type t = {
    probs : float array;
    r : int;
    (* Memoized prefix sums, keyed by the prefix as a bitmask of entry
       indices. *)
    table : (int, float) Hashtbl.t;
    (* The fully-forced table flattened into an unboxed array indexed by
       prefix mask (slot 0 unused, 0.): the flat evaluator reads prefix
       sums with one bounds-free load instead of a hashtable probe.
       Filled by [create] after forcing; read-only afterwards. *)
    mutable a_flat : floatarray;
  }

  let r t = t.r

  let bits_of_mask r mask = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init r Fun.id)

  (* A for the prefix [mask]; solves equation (17) with memoization.
     The prefix must be nonempty. *)
  let rec a t mask =
    match Hashtbl.find_opt t.table mask with
    | Some v -> v
    | None ->
        let v = compute t mask in
        Hashtbl.replace t.table mask v;
        v

  and compute t mask =
    let full = (1 lsl t.r) - 1 in
    if mask = full then begin
      (* Eq. (16): A_r = 1/(1 − Π(1−p_i)). *)
      let prod =
        Array.fold_left (fun acc p -> acc *. (1. -. p)) 1. t.probs
      in
      1. /. (1. -. prod)
    end
    else begin
      (* S = prefix entries; t0 = one entry of the complement; K = the
         rest of the complement. Equation (17):
           0 = Σ_{U ⊆ K} w_U · (A(S∪U∪{t0}) − (1 − q_S)·A(S∪U))
         where U is the unsampled pattern of K,
         w_U = Π_{i∈U}(1−p_i)·Π_{i∈K∖U} p_i, and
         q_S = Π_{i∈S}(1−p_i). The U = ∅ term's A(S) is the unknown. *)
      let s_bits = bits_of_mask t.r mask in
      if s_bits = [] then invalid_arg "General: empty prefix";
      let comp = bits_of_mask t.r (lnot mask land ((1 lsl t.r) - 1)) in
      let t0, ks = (List.hd comp, List.tl comp) in
      let q_s =
        List.fold_left (fun acc i -> acc *. (1. -. t.probs.(i))) 1. s_bits
      in
      let one_minus_qs = 1. -. q_s in
      let k = List.length ks in
      let karr = Array.of_list ks in
      let acc = ref 0. in
      let w_empty = ref 1. in
      Array.iter (fun i -> w_empty := !w_empty *. t.probs.(i)) karr;
      for upat = 0 to (1 lsl k) - 1 do
        (* U = entries of K flagged in upat (unsampled). *)
        let w = ref 1. in
        let u_mask = ref 0 in
        for j = 0 to k - 1 do
          if upat land (1 lsl j) <> 0 then begin
            w := !w *. (1. -. t.probs.(karr.(j)));
            u_mask := !u_mask lor (1 lsl karr.(j))
          end
          else w := !w *. t.probs.(karr.(j))
        done;
        let up = a t (mask lor !u_mask lor (1 lsl t0)) in
        acc := !acc +. (!w *. up);
        if upat <> 0 then begin
          let down = a t (mask lor !u_mask) in
          acc := !acc -. (!w *. one_minus_qs *. down)
        end
      done;
      (* 0 = acc − w_∅·(1−q_S)·A(S)  ⇒  A(S) = acc/(w_∅(1−q_S)). *)
      !acc /. (!w_empty *. one_minus_qs)
    end

  (* Monomorphic probability-vector hash over IEEE bit patterns —
     consistent with the [Float.equal] element test below on the valid
     domain (0,1] (no −0/NaN). *)
  let hash_probs a =
    Array.fold_left
      (fun h p -> (h * 0x01000193) lxor Int64.to_int (Int64.bits_of_float p))
      0x811c9dc5 a

  (* probs → fully-forced prefix-sum table. Entries are 2^r floats, so
     the capacity stays small; the table is read-only after [create],
     which makes sharing across domains safe. *)
  let cache : (float array, t) Numerics.Memo.t =
    Numerics.Memo.create ~capacity:32 ~name:"max_oblivious.general"
      ~hash:hash_probs
      ~equal:(fun a b ->
        Array.length a = Array.length b && Array.for_all2 Float.equal a b)
      ()

  let create ~probs =
    Array.iter
      (fun p ->
        if p <= 0. || p > 1. then
          invalid_arg "General.create: probabilities must be in (0,1]")
      probs;
    Numerics.Memo.find_or_add cache (Array.copy probs) @@ fun () ->
    let t =
      {
        probs = Array.copy probs;
        r = Array.length probs;
        table = Hashtbl.create 64;
        a_flat = Float.Array.make 0 0.;
      }
    in
    (* Force the full table now so estimates are pure lookups. *)
    for mask = 1 to (1 lsl t.r) - 1 do
      ignore (a t mask)
    done;
    t.a_flat <-
      Float.Array.init (1 lsl t.r) (fun mask ->
          if mask = 0 then 0. else a t mask);
    t

  let prefix_sum t indices =
    let mask =
      List.fold_left
        (fun acc i ->
          if i < 0 || i >= t.r then invalid_arg "General.prefix_sum: index";
          if acc land (1 lsl i) <> 0 then
            invalid_arg "General.prefix_sum: duplicate index";
          acc lor (1 lsl i))
        0 indices
    in
    if mask = 0 then invalid_arg "General.prefix_sum: empty prefix";
    a t mask

  let estimate t (o : outcome) =
    if O.r o <> t.r then invalid_arg "General.estimate: r mismatch";
    Array.iteri
      (fun i p ->
        if not (Numerics.Special.float_equal p t.probs.(i)) then
          invalid_arg "General.estimate: probability mismatch")
      o.O.probs;
    if O.sampled_values o = [] then 0.
    else begin
      let phi = determining_vector_l o in
      let idx = Array.init t.r Fun.id in
      Array.sort
        (fun x y ->
          match Float.compare phi.(y) phi.(x) with 0 -> Int.compare x y | c -> c)
        idx;
      let acc = ref 0. in
      let mask = ref 0 in
      let prev = ref 0. in
      Array.iter
        (fun i ->
          mask := !mask lor (1 lsl i);
          let ai = a t !mask in
          acc := !acc +. ((ai -. !prev) *. phi.(i));
          prev := ai)
        idx;
      !acc
    end
end

(* Allocation-free per-key evaluation: inputs come from an [Evalbuf]
   (values in [vals], presence in [present]) and the result is stored
   into a caller slot, so a call passes only pointers and immediates —
   no boxed-float returns, no closures, no intermediate arrays. Each
   evaluator mirrors its reference implementation operation for
   operation (same comparator, same accumulation order), so results are
   bit-identical; the test suite enforces both properties. *)
module Flat = struct
  (* Descending insertion sort of [fa.(0..n-1)] under [Float.compare]'s
     total order — the same order as the reference's
     [List.sort (fun a b -> Float.compare b a)] (NaN sorts last). *)
  let sort_desc (fa : floatarray) n =
    for j = 1 to n - 1 do
      let v = Float.Array.unsafe_get fa j in
      let m = ref j in
      while
        !m > 0 && Float.compare (Float.Array.unsafe_get fa (!m - 1)) v < 0
      do
        Float.Array.unsafe_set fa !m (Float.Array.unsafe_get fa (!m - 1));
        decr m
      done;
      Float.Array.unsafe_set fa !m v
    done

  let l_uniform_into (c : Coeffs.t) (buf : Evalbuf.t) ~(dst : floatarray) ~di =
    let r = c.Coeffs.r in
    if r > Float.Array.length buf.Evalbuf.phi then
      invalid_arg "Flat.l_uniform_into: r exceeds buffer capacity";
    (* Compact the sampled values into [phi.(0..k-1)] in ascending entry
       order — the reference's [sampled_values] order. *)
    let k = ref 0 in
    for i = 0 to r - 1 do
      if Bytes.unsafe_get buf.Evalbuf.present i <> '\000' then begin
        Float.Array.unsafe_set buf.Evalbuf.phi !k
          (Float.Array.unsafe_get buf.Evalbuf.vals i);
        incr k
      end
    done;
    let k = !k in
    if k = 0 then Float.Array.unsafe_set dst di 0.
    else begin
      sort_desc buf.Evalbuf.phi k;
      (* Sorted determining vector: the max replicated in the first
         r − k slots, the sorted sampled values in the last k. *)
      let mx = Float.Array.unsafe_get buf.Evalbuf.phi 0 in
      let alpha = c.Coeffs.alpha_fa in
      let acc = ref 0. in
      for i = 0 to r - 1 do
        let u =
          if i < r - k then mx
          else Float.Array.unsafe_get buf.Evalbuf.phi (i - (r - k))
        in
        acc := !acc +. (Float.Array.unsafe_get alpha i *. u)
      done;
      Float.Array.unsafe_set dst di !acc
    end

  let general_into (g : General.t) (buf : Evalbuf.t) ~(dst : floatarray) ~di =
    let r = g.General.r in
    if r > Float.Array.length buf.Evalbuf.phi then
      invalid_arg "Flat.general_into: r exceeds buffer capacity";
    (* Determining vector: max of the sampled values (ascending entry
       order, 0. seed — exactly [determining_vector_l]). *)
    let m = ref 0. in
    let any = ref false in
    for i = 0 to r - 1 do
      if Bytes.unsafe_get buf.Evalbuf.present i <> '\000' then begin
        any := true;
        m := Float.max !m (Float.Array.unsafe_get buf.Evalbuf.vals i)
      end
    done;
    if not !any then Float.Array.unsafe_set dst di 0.
    else begin
      let m = !m in
      for i = 0 to r - 1 do
        Float.Array.unsafe_set buf.Evalbuf.phi i
          (if Bytes.unsafe_get buf.Evalbuf.present i <> '\000' then
             Float.Array.unsafe_get buf.Evalbuf.vals i
           else m)
      done;
      (* Sorting permutation of φ — the reference comparator
         (φ descending, entry index ascending on ties) is a strict total
         order, so insertion sort lands on the same unique permutation
         as [Array.sort]. *)
      for i = 0 to r - 1 do
        Bytes.unsafe_set buf.Evalbuf.perm i (Char.unsafe_chr i)
      done;
      for j = 1 to r - 1 do
        let x = Char.code (Bytes.unsafe_get buf.Evalbuf.perm j) in
        let phx = Float.Array.unsafe_get buf.Evalbuf.phi x in
        let m' = ref j in
        let continue = ref true in
        while !continue && !m' > 0 do
          let y = Char.code (Bytes.unsafe_get buf.Evalbuf.perm (!m' - 1)) in
          let c = Float.compare phx (Float.Array.unsafe_get buf.Evalbuf.phi y) in
          if c > 0 || (c = 0 && x < y) then begin
            Bytes.unsafe_set buf.Evalbuf.perm !m' (Char.unsafe_chr y);
            decr m'
          end
          else continue := false
        done;
        Bytes.unsafe_set buf.Evalbuf.perm !m' (Char.unsafe_chr x)
      done;
      (* Coefficients from consecutive prefix sums along the sorting
         permutation — same walk, same accumulation order as
         [General.estimate]. *)
      let a_flat = g.General.a_flat in
      let acc = ref 0. in
      let mask = ref 0 in
      let prev = ref 0. in
      for j = 0 to r - 1 do
        let i = Char.code (Bytes.unsafe_get buf.Evalbuf.perm j) in
        mask := !mask lor (1 lsl i);
        let ai = Float.Array.unsafe_get a_flat !mask in
        acc := !acc +. ((ai -. !prev) *. Float.Array.unsafe_get buf.Evalbuf.phi i);
        prev := ai
      done;
      Float.Array.unsafe_set dst di !acc
    end
end

let u_r2 (o : outcome) =
  check_r2 o;
  let p1 = o.probs.(0) and p2 = o.probs.(1) in
  let c = 1. +. Float.max 0. (1. -. p1 -. p2) in
  match (o.values.(0), o.values.(1)) with
  | None, None -> 0.
  | Some v1, None -> v1 /. (p1 *. c)
  | None, Some v2 -> v2 /. (p2 *. c)
  | Some v1, Some v2 ->
      (Float.max v1 v2 -. (((v1 *. (1. -. p2)) +. (v2 *. (1. -. p1))) /. c))
      /. (p1 *. p2)

let u_asym_r2 (o : outcome) =
  check_r2 o;
  let p1 = o.probs.(0) and p2 = o.probs.(1) in
  let d = Float.max (1. -. p1) p2 in
  match (o.values.(0), o.values.(1)) with
  | None, None -> 0.
  | Some v1, None -> v1 /. p1
  | None, Some v2 -> v2 /. d
  | Some v1, Some v2 ->
      (Float.max v1 v2 -. (p2 *. (1. -. p1) /. d *. v2) -. ((1. -. p2) *. v1))
      /. (p1 *. p2)

let var_of est ~probs ~v = (Exact.oblivious ~probs ~v est).Exact.var
let var_l_r2 ~probs ~v = var_of l_r2 ~probs ~v
let var_u_r2 ~probs ~v = var_of u_r2 ~probs ~v
let var_ht_r2 ~probs ~v = var_of Ht.max_oblivious ~probs ~v
