module Oblivious = struct
  type t = { probs : float array; values : float option array }

  let r t = Array.length t.probs

  let sampled t =
    let acc = ref [] in
    Array.iteri (fun i v -> if v <> None then acc := i :: !acc) t.values;
    List.rev !acc

  let sampled_values t =
    Array.to_list t.values |> List.filter_map Fun.id

  let of_mask ~probs v mask =
    if Array.length probs <> Array.length v || Array.length mask <> Array.length v
    then invalid_arg "Oblivious.of_mask: length mismatch";
    { probs; values = Array.mapi (fun i m -> if m then Some v.(i) else None) mask }

  (* One uniform per entry, in index order: the stream every caller's
     results are pinned to. *)
  let draw rng ~probs v =
    let r = Array.length probs in
    if Array.length v <> r then invalid_arg "Oblivious.draw: length mismatch";
    let values = Array.make r None in
    for i = 0 to r - 1 do
      if Numerics.Prng.float rng < probs.(i) then values.(i) <- Some v.(i)
    done;
    { probs; values }

  let prob_of_mask ~probs mask =
    let acc = ref 1. in
    Array.iteri
      (fun i m -> acc := !acc *. (if m then probs.(i) else 1. -. probs.(i)))
      mask;
    !acc

  let enumerate ~probs v =
    let r = Array.length probs in
    let n = 1 lsl r in
    List.init n (fun bits ->
        let mask = Array.init r (fun i -> bits land (1 lsl i) <> 0) in
        (prob_of_mask ~probs mask, of_mask ~probs v mask))
end

module Pps = struct
  type t = {
    taus : float array;
    seeds : float array;
    values : float option array;
  }

  let r t = Array.length t.taus

  let sampled t =
    let acc = ref [] in
    Array.iteri (fun i v -> if v <> None then acc := i :: !acc) t.values;
    List.rev !acc

  let upper_bound t i =
    match t.values.(i) with
    | Some v -> v
    | None -> t.seeds.(i) *. t.taus.(i)

  let inclusion_prob ~taus v i = Float.min 1. (v.(i) /. taus.(i))

  let of_seeds ~taus ~seeds v =
    let n = Array.length v in
    if Array.length taus <> n || Array.length seeds <> n then
      invalid_arg "Pps.of_seeds: length mismatch";
    {
      taus;
      seeds;
      values =
        Array.init n (fun i ->
            if v.(i) >= seeds.(i) *. taus.(i) then Some v.(i) else None);
    }

  let draw rng ~taus v =
    let seeds = Array.map (fun _ -> Numerics.Prng.float_open rng) taus in
    of_seeds ~taus ~seeds v

  let expectation ?tol ~taus ~v g =
    (* The integrand is piecewise analytic in the seeds, with kinks where
       an inclusion decision flips (u_i = v_i/τ_i) and where a revealed
       upper bound crosses the other entry's value (u_i = v_j/τ_i); we
       split at those points and use fixed-order Gauss–Legendre on each
       smooth piece — deterministic, so the nesting is noise-free. *)
    ignore tol;
    (* Graded breakpoints near 0 resolve the integrable logarithmic
       singularity some estimators exhibit as a seed tends to 0 (e.g.
       max^(L) when the other entry's value is 0). *)
    let graded = List.init 12 (fun k -> 10. ** float_of_int (-(k + 1))) in
    let breaks j =
      ([ v.(0) /. taus.(j); v.(1) /. taus.(j) ] @ graded)
      |> List.filter (fun x -> x > 0. && x < 1.)
    in
    match Array.length v with
    | 1 ->
        Numerics.Integrate.robust_pieces ~breakpoints:(breaks 0)
          (fun u1 -> g (of_seeds ~taus ~seeds:[| u1 |] v))
          0. 1.
    | 2 ->
        Numerics.Integrate.robust_pieces ~breakpoints:(breaks 0)
          (fun u1 ->
            Numerics.Integrate.robust_pieces ~breakpoints:(breaks 1)
              (fun u2 -> g (of_seeds ~taus ~seeds:[| u1; u2 |] v))
              0. 1.)
          0. 1.
    | _ -> invalid_arg "Pps.expectation: only r <= 2 supported"
end

module Binary = struct
  type t = { probs : float array; below : bool array; sampled : bool array }

  let r t = Array.length t.probs

  let known_value t i =
    if t.sampled.(i) then Some 1 else if t.below.(i) then Some 0 else None

  let of_below ~probs ~below v =
    let n = Array.length v in
    if Array.length probs <> n || Array.length below <> n then
      invalid_arg "Binary.of_below: length mismatch";
    Array.iter (fun b -> if b <> 0 && b <> 1 then invalid_arg "Binary: data must be 0/1") v;
    { probs; below; sampled = Array.mapi (fun i b -> v.(i) = 1 && b) below }

  let draw rng ~probs v =
    let below = Array.map (fun p -> Numerics.Prng.float rng <= p) probs in
    of_below ~probs ~below v

  let enumerate ~probs v =
    let r = Array.length probs in
    let n = 1 lsl r in
    List.init n (fun bits ->
        let below = Array.init r (fun i -> bits land (1 lsl i) <> 0) in
        let p = ref 1. in
        Array.iteri
          (fun i b -> p := !p *. (if b then probs.(i) else 1. -. probs.(i)))
          below;
        (!p, of_below ~probs ~below v))

  let to_oblivious t =
    {
      Oblivious.probs = t.probs;
      values =
        Array.init (r t) (fun i ->
            if t.sampled.(i) then Some 1.
            else if t.below.(i) then Some 0.
            else None);
    }
end
