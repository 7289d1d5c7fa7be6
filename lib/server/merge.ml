(* Bit-deterministic merge of instance summaries — the algebra cluster
   mode stands on.

   Every live summary the store keeps is a pure function of the
   accumulated per-key weights and the recorded seeds (see Store), so
   merging two stores' summaries reduces to merging their weight maps
   and re-deriving the few entries whose inputs changed:

   - weights: pointwise sum (keys in one side copy through);
   - binary support sample: plain union — membership is [u(h) <= p],
     decided by the seed alone, so the support of a union is the union
     of the supports, exactly;
   - PPS sample: union with the inclusion predicate re-tested for
     overlap keys. A key held by one side keeps its membership (its
     weight did not change); a key held by both may newly cross
     [u(h)·tau] once the weights add (each side below threshold, the sum
     above), so its predicate is recomputed from the merged weight —
     this is the max-tau conditioning for equal taus, which the
     instance-config compatibility check enforces;
   - bottom-k: union of the two k+1-smallest working sets plus every
     overlap key, ranks recomputed from merged weights where the weight
     changed, then the k+1 smallest (rank, key) pairs are kept. The
     candidate set provably contains the true working set of the merged
     weights: ranks are monotone nonincreasing in the weight, so a
     single-side key outside its store's working set was already beaten
     by k+1 pairs that only shrink under merge;
   - records: integer sum; volume: float sum.

   Hence merge(ingest A, ingest B) ≡ ingest(A ∪ B) whenever the per-key
   weight sums are themselves exact — trivially so when the key sets are
   disjoint, which is precisely what the router's hash placement
   guarantees (each key owned by one daemon). A summary is the whole
   state of an instance, so nothing is rebuilt on install: the payload
   below is also the section format of Snapshot. *)

module Seeds = Sampling.Seeds

let icfg_equal (a : Store.instance_config) (b : Store.instance_config) =
  Float.equal a.Store.tau b.Store.tau
  && a.Store.k = b.Store.k
  && Float.equal a.Store.p b.Store.p

let rank_compare (r1, k1) (r2, k2) =
  match Float.compare r1 r2 with 0 -> Int.compare k1 k2 | c -> c

(* Sorted-assoc merge of the weight maps; also records which keys both
   sides held (those are the only entries whose summaries must be
   re-derived). *)
let merge_weights wa wb =
  let overlap = Hashtbl.create 64 in
  let rec go wa wb acc =
    match (wa, wb) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | (ka, va) :: ta, (kb, vb) :: tb ->
        if ka < kb then go ta wb ((ka, va) :: acc)
        else if kb < ka then go wa tb ((kb, vb) :: acc)
        else begin
          Hashtbl.replace overlap ka ();
          go ta tb ((ka, va +. vb) :: acc)
        end
  in
  (go wa wb [], overlap)

let key_set l =
  let t = Hashtbl.create (max 16 (List.length l)) in
  List.iter (fun (k, _) -> Hashtbl.replace t k ()) l;
  t

let merge seeds (a : Store.summary) (b : Store.summary) =
  if a.Store.s_name <> b.Store.s_name then
    Error
      (Printf.sprintf "cannot merge instance %S with %S" a.Store.s_name
         b.Store.s_name)
  else if a.Store.s_id <> b.Store.s_id then
    Error
      (Printf.sprintf "instance %S has id %d on one side, %d on the other"
         a.Store.s_name a.Store.s_id b.Store.s_id)
  else if not (icfg_equal a.Store.s_cfg b.Store.s_cfg) then
    Error
      (Printf.sprintf
         "instance %S has different tau/k/p on the two sides (cluster \
          CREATE must fan identical parameters to every daemon)"
         a.Store.s_name)
  else begin
    let id = a.Store.s_id in
    let tau = a.Store.s_cfg.Store.tau and k = a.Store.s_cfg.Store.k in
    let weights, overlap = merge_weights a.Store.s_weights b.Store.s_weights in
    (* PPS: walk the merged weights; single-side keys keep their
       recorded membership, overlap keys re-test the predicate. The
       recorded PPS value is always refreshed to the merged weight
       (which for single-side keys is the recorded value already). *)
    let ppsa = key_set a.Store.s_pps and ppsb = key_set b.Store.s_pps in
    let pps =
      List.filter
        (fun (key, v) ->
          if Hashtbl.mem overlap key then
            let u = Seeds.seed seeds ~instance:id ~key in
            v >= u *. tau
          else Hashtbl.mem ppsa key || Hashtbl.mem ppsb key)
        weights
    in
    (* Binary: exact union (both sides sorted; dedupe overlap keys). *)
    let rec bunion xs ys acc =
      match (xs, ys) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | x :: tx, y :: ty ->
          if x < y then bunion tx ys (x :: acc)
          else if y < x then bunion xs ty (y :: acc)
          else bunion tx ty (x :: acc)
    in
    let binary = bunion a.Store.s_binary b.Store.s_binary [] in
    (* Bottom-k: candidates = both working sets (recorded ranks stand
       for single-side keys) plus every overlap key (rank recomputed
       from the merged weight); keep the k+1 smallest. *)
    let wtbl = Hashtbl.create (max 16 (List.length weights)) in
    List.iter (fun (key, v) -> Hashtbl.replace wtbl key v) weights;
    let cand = Hashtbl.create 64 in
    let add_recorded (rank, key) =
      if not (Hashtbl.mem overlap key) then Hashtbl.replace cand key rank
    in
    List.iter add_recorded a.Store.s_bk;
    List.iter add_recorded b.Store.s_bk;
    Hashtbl.iter
      (fun key () ->
        let w = Hashtbl.find wtbl key in
        Hashtbl.replace cand key
          (Seeds.rank seeds Sampling.Rank.PPS ~instance:id ~key ~w))
      overlap;
    let bk =
      Hashtbl.fold (fun key rank acc -> (rank, key) :: acc) cand []
      |> List.sort rank_compare
      |> List.filteri (fun i _ -> i <= k)
    in
    Ok
      {
        a with
        Store.s_records = a.Store.s_records + b.Store.s_records;
        s_volume = a.Store.s_volume +. b.Store.s_volume;
        s_weights = weights;
        s_pps = pps;
        s_binary = binary;
        s_bk = bk;
      }
  end

let merge_all seeds = function
  | [] -> Error "cannot merge an empty list of summaries"
  | s :: rest ->
      List.fold_left
        (fun acc b -> Result.bind acc (fun a -> merge seeds a b))
        (Ok s) rest

(* --- wire payload ---

   Line-oriented, floats as lossless hex literals, every section sorted
   (the summary invariant), so the payload is byte-stable and parses
   back to the exact same summary:

     summary <name> <id> <tau> <k> <p> <records> <volume>
     w <key> <weight>      (ascending key)
     s <key> <value>       (ascending key)
     b <key>               (ascending)
     r <key> <rank>        (ascending (rank, key))
     end
*)

let payload (s : Store.summary) =
  let cfg = s.Store.s_cfg in
  let header =
    Printf.sprintf "summary %s %d %h %d %h %d %h" s.Store.s_name s.Store.s_id
      cfg.Store.tau cfg.Store.k cfg.Store.p s.Store.s_records s.Store.s_volume
  in
  header
  :: List.concat
       [
         List.map
           (fun (k, v) -> Printf.sprintf "w %d %h" k v)
           s.Store.s_weights;
         List.map (fun (k, v) -> Printf.sprintf "s %d %h" k v) s.Store.s_pps;
         List.map (fun k -> Printf.sprintf "b %d" k) s.Store.s_binary;
         List.map
           (fun (rank, key) -> Printf.sprintf "r %d %h" key rank)
           s.Store.s_bk;
         [ "end" ];
       ]

let ( let* ) = Result.bind

let parse_header line =
  match String.split_on_char ' ' line with
  | [ "summary"; name; id; tau; k; p; records; volume ] ->
      if not (Protocol.valid_name name) then
        Error (Printf.sprintf "invalid instance name %S" name)
      else
        let* id = Protocol.int_tok "instance id" id in
        let* tau = Protocol.pos_float_tok "tau" tau in
        let* k = Protocol.int_tok "k" k in
        let* p = Protocol.pos_float_tok "p" p in
        let* records = Protocol.int_tok "records" records in
        let* volume = Protocol.float_tok "volume" volume in
        if id < 0 then Error (Printf.sprintf "negative instance id %d" id)
        else if k <= 0 then Error (Printf.sprintf "k %d must be > 0" k)
        else if p > 1. then Error (Printf.sprintf "p %g out of (0,1]" p)
        else if records < 0 then
          Error (Printf.sprintf "negative record count %d" records)
        else if volume < 0. then
          Error (Printf.sprintf "negative volume %g" volume)
        else
          Ok
            {
              Store.s_name = name;
              s_id = id;
              s_cfg = { Store.tau; k; p };
              s_records = records;
              s_volume = volume;
              s_weights = [];
              s_pps = [];
              s_binary = [];
              s_bk = [];
            }
  | _ ->
      Error
        (Printf.sprintf
           "expected 'summary <name> <id> <tau> <k> <p> <records> <volume>', \
            got %S"
           line)

(* Strict section parser over [lines], the first of which is line
   [line] of its input: sections must arrive in w, s, b, r order, each
   ascending (the byte-stability contract doubles as a corruption check,
   and rejects duplicate keys), every sampled key must be a weighted
   key, and the working set must fit k+1. Stops after 'end', returning
   the summary, the number of the next line and the unread lines; a
   failure carries the number of the offending line. *)
let section ~line lines =
  match lines with
  | [] -> Error (line, "empty summary payload")
  | header :: rest ->
      let* base = Result.map_error (fun m -> (line, m)) (parse_header header) in
      let k = base.Store.s_cfg.Store.k in
      let wtbl = Hashtbl.create 256 in
      let sampled what key =
        if Hashtbl.mem wtbl key then Ok ()
        else Error (Printf.sprintf "%s key %d has no weight entry" what key)
      in
      (* [sec] orders sections; [last] enforces ascending order inside
         one section; [n] numbers the line at the head of the input. *)
      let rec go n sec last acc_w acc_s acc_b acc_r = function
        | [] -> Error (n, "truncated summary payload (missing 'end')")
        | "end" :: rest ->
            let bk = List.rev acc_r in
            if List.length bk > k + 1 then
              Error
                ( n,
                  Printf.sprintf "bottom-k working set larger than k+1 = %d"
                    (k + 1) )
            else
              Ok
                ( {
                    base with
                    Store.s_weights = List.rev acc_w;
                    s_pps = List.rev acc_s;
                    s_binary = List.rev acc_b;
                    s_bk = bk;
                  },
                  n + 1,
                  rest )
        | line :: rest -> (
            let at r = Result.map_error (fun m -> (n, m)) r in
            (* Compare against the previous key only when it belongs to
               the {e same} section as this line ([mysec]); the first
               line of a new section starts a fresh ascending chain. *)
            let ascending what mysec order key =
              match last with
              | Some (s, prev) when s = mysec && order key prev <= 0 ->
                  Error (Printf.sprintf "%s keys out of order at %d" what key)
              | _ -> Ok ()
            in
            let go = go (n + 1) in
            match String.split_on_char ' ' line with
            | [ "w"; key; v ] when sec <= 0 ->
                let* key = at (Protocol.int_tok "weight key" key) in
                let* v = at (Protocol.pos_float_tok "weight" v) in
                let* () = at (ascending "weight" 0 Int.compare key) in
                Hashtbl.replace wtbl key v;
                go 0
                  (Some (0, key))
                  ((key, v) :: acc_w) acc_s acc_b acc_r rest
            | [ "s"; key; v ] when sec <= 1 ->
                let* key = at (Protocol.int_tok "pps key" key) in
                let* v = at (Protocol.pos_float_tok "pps value" v) in
                let* () = at (ascending "pps" 1 Int.compare key) in
                let* () = at (sampled "pps" key) in
                go 1
                  (Some (1, key))
                  acc_w ((key, v) :: acc_s) acc_b acc_r rest
            | [ "b"; key ] when sec <= 2 ->
                let* key = at (Protocol.int_tok "binary key" key) in
                let* () = at (ascending "binary" 2 Int.compare key) in
                let* () = at (sampled "binary" key) in
                go 2 (Some (2, key)) acc_w acc_s (key :: acc_b) acc_r rest
            | [ "r"; key; rank ] when sec <= 3 ->
                let* key = at (Protocol.int_tok "bottom-k key" key) in
                let* rank = at (Protocol.float_tok "rank" rank) in
                (* (rank, key) pairs ascend; encode the pair order on the
                   key axis via the accumulated list head instead. *)
                let* () =
                  at
                    (match acc_r with
                    | (r0, k0) :: _
                      when rank_compare (rank, key) (r0, k0) <= 0 ->
                        Error
                          (Printf.sprintf "bottom-k pairs out of order at %d"
                             key)
                    | _ -> Ok ())
                in
                let* () = at (sampled "bottom-k" key) in
                go 3 (Some (3, key)) acc_w acc_s acc_b ((rank, key) :: acc_r)
                  rest
            | _ ->
                Error
                  ( n,
                    Printf.sprintf
                      "bad summary line %S (expected 'w <key> <weight>', 's \
                       <key> <value>', 'b <key>', 'r <key> <rank>' or 'end', \
                       sections in that order)"
                      line ))
      in
      go (line + 1) 0 None [] [] [] [] rest

(* A summary's samples must be exactly what its weights and seeds
   determine — as Store.apply derives them and [merge] preserves them:
   PPS holds the keys with [w >= u·tau] at their weight, binary the keys
   with [u <= p], bottom-k the k+1 smallest (rank, key) pairs. The
   payloads are compared line by line, so a mismatch is reported at its
   offset from the section header. *)
let check_derived seeds (s : Store.summary) =
  let id = s.Store.s_id and { Store.tau; k; p } = s.Store.s_cfg in
  let u key = Seeds.seed seeds ~instance:id ~key in
  let weights = s.Store.s_weights in
  let rank (key, w) =
    (Seeds.rank seeds Sampling.Rank.PPS ~instance:id ~key ~w, key)
  in
  let derived =
    {
      s with
      Store.s_pps = List.filter (fun (key, w) -> w >= u key *. tau) weights;
      s_binary = List.filter (fun key -> u key <= p) (List.map fst weights);
      s_bk =
        List.filteri
          (fun i _ -> i <= k)
          (List.sort rank_compare (List.map rank weights));
    }
  in
  let rec first_diff off got want =
    match (got, want) with
    | [], [] -> Ok ()
    | g :: got, w :: want when g = w -> first_diff (off + 1) got want
    | _, want ->
        Error
          ( off,
            Printf.sprintf
              "samples of %S do not follow from its weights and seeds: \
               expected %s here"
              s.Store.s_name
              (match want with w :: _ -> Printf.sprintf "%S" w | [] -> "end") )
  in
  first_diff 0 (payload s) (payload derived)

let of_lines lines =
  match section ~line:1 lines with
  | Ok (s, _, []) -> Ok s
  | Ok (_, n, _ :: _) ->
      Error (Printf.sprintf "line %d: trailing garbage after 'end'" n)
  | Error (n, m) -> Error (Printf.sprintf "line %d: %s" n m)

(* Build a queryable store from merged summaries: instances are
   installed under their recorded ids (seed derivations match the
   exporting daemons), so Engine.query over the result is bit-identical
   to a single node that ingested the union stream. *)
let materialize ?pool cfg summaries =
  let st = Store.create ?pool cfg in
  List.fold_left
    (fun acc s ->
      let* () = acc in
      Result.map ignore (Store.install_summary st s))
    (Ok ()) summaries
  |> Result.map (fun () -> st)
