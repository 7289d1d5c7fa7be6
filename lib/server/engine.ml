module P = Protocol
module Designer = Estcore.Designer
module Distinct = Aggregates.Distinct

type t = { t_store : Store.t; t_wal : Wal.t option }

let create ?wal s = { t_store = s; t_wal = wal }
let store t = t.t_store
let wal t = t.t_wal

type action = Continue | Close | Stop

(* Derived OR^(L) tables, memoized under the problem fingerprint. The
   cache is monomorphic in the outcome key, so the engine owns one for
   the binary-known-seeds key type. *)
let or_cache : (bool array * bool array) Designer.cache =
  Designer.cache ~name:"server.or" ()

let or2 v = if v.(0) > 0.5 || v.(1) > 0.5 then 1. else 0.

(* [~fname]/[~tag] give the problem a precomputed fingerprint key, so
   the per-query cache lookup is a cheap string build instead of the
   structural MD5 walk over the whole 16-vector domain. *)
let or_problem ~p1 ~p2 =
  Designer.Problems.binary_known_seeds ~fname:"or2" ~probs:[| p1; p2 |] ~f:or2
    ()
  |> Designer.Problems.sort_data ~tag:"order-l" Designer.Problems.order_l

(* Flattened 16-cell copies of the served OR^(L) tables, keyed by the
   probability pair. [Or_weighted.Table.of_estimator] copies the derived
   cell values verbatim, so the flat path returns bit-identical sums. *)
let or_table_cache : (float * float, Estcore.Or_weighted.Table.t) Numerics.Memo.t
    =
  Numerics.Memo.create ~capacity:64 ~name:"server.or_table"
    ~hash:(fun (p1, p2) ->
      (* bit-pattern hash, consistent with Float.equal on the validated
         domain p ∈ (0,1] (no -0. or nan to distinguish) *)
      Int64.to_int (Int64.bits_of_float p1)
      lxor (Int64.to_int (Int64.bits_of_float p2) * 0x9e3779b1))
    ~equal:(fun (a1, a2) (b1, b2) -> Float.equal a1 b1 && Float.equal a2 b2)
    ()

let or_table ~p1 ~p2 table =
  Numerics.Memo.find_or_add or_table_cache (p1, p2) (fun () ->
      Estcore.Or_weighted.Table.of_estimator table)

let or_flat_tables ~p1 ~p2 =
  match Designer.solve_order_cached ~cache:or_cache (or_problem ~p1 ~p2) with
  | Ok table -> Ok (table, or_table ~p1 ~p2 table)
  | Error e -> Error e

module ISet = Set.Make (Int)

(* Sum of per-key table lookups over the union of the two samples; the
   outcome key of key h is its (below, sampled) indicator pair, with
   seeds recomputed at the instances' recorded ids. The reference for
   {!eval_or_flat} below; kept as the oracle the bit-identity tests
   compare against. *)
let eval_or_table table seeds ~ids:(id1, id2) ~p1 ~p2 ~s1 ~s2 =
  let set1 = ISet.of_list s1 and set2 = ISet.of_list s2 in
  ISet.fold
    (fun h acc ->
      let u1 = Sampling.Seeds.seed seeds ~instance:id1 ~key:h in
      let u2 = Sampling.Seeds.seed seeds ~instance:id2 ~key:h in
      let key =
        ([| u1 <= p1; u2 <= p2 |], [| ISet.mem h set1; ISet.mem h set2 |])
      in
      acc +. Designer.lookup table key)
    (ISet.union set1 set2)
    0.

(* Serving path of [QUERY or]: same ascending key walk and same
   left-to-right accumulation as {!eval_or_table}, but each key costs
   one cell index and one unboxed load instead of two fresh bool arrays
   and a hashtable probe — bit-identical by construction. *)
let eval_or_flat flat seeds ~ids:(id1, id2) ~p1 ~p2 ~s1 ~s2 =
  let set1 = ISet.of_list s1 and set2 = ISet.of_list s2 in
  let acc = Float.Array.make 1 0. in
  ISet.iter
    (fun h ->
      let u1 = Sampling.Seeds.seed seeds ~instance:id1 ~key:h in
      let u2 = Sampling.Seeds.seed seeds ~instance:id2 ~key:h in
      let code =
        Estcore.Or_weighted.Table.code ~b0:(u1 <= p1) ~b1:(u2 <= p2)
          ~s0:(ISet.mem h set1) ~s1:(ISet.mem h set2)
      in
      Estcore.Or_weighted.Table.add_into flat ~code acc)
    (ISet.union set1 set2);
  Float.Array.get acc 0

let select_all _ = true

let pps_samples_of st insts =
  {
    Aggregates.Sum_agg.seeds = Store.seeds st;
    taus =
      Array.of_list
        (List.map (fun i -> (Store.instance_config i).Store.tau) insts);
    samples = Array.of_list (List.map Store.pps_sample insts);
  }

let names_field insts =
  "[" ^ String.concat "," (List.map (fun i -> P.jstr (Store.name i)) insts) ^ "]"

let run_max st insts =
  let ps = pps_samples_of st insts in
  let r = List.length insts in
  let ht = Aggregates.Sum_agg.estimate_flat ps ~est:`Max_ht ~select:select_all in
  if r = 2 then
    let l =
      Aggregates.Sum_agg.estimate_flat ps ~est:`Max_l ~select:select_all
    in
    [ ("estimate", P.jfloat l); ("estimator", P.jstr "max-l");
      ("ht", P.jfloat ht) ]
  else
    [ ("estimate", P.jfloat ht); ("estimator", P.jstr "max-ht");
      ("ht", P.jfloat ht) ]

let run_or st insts =
  let seeds = Store.seeds st in
  let probs =
    Array.of_list (List.map (fun i -> (Store.instance_config i).Store.p) insts)
  in
  let ids = Array.of_list (List.map Store.id insts) in
  let samples = Array.of_list (List.map Store.binary_sample insts) in
  match insts with
  | [ _; _ ] ->
      let p1 = probs.(0) and p2 = probs.(1) in
      let s1 = samples.(0) and s2 = samples.(1) in
      let classes =
        Distinct.classify ~ids:(ids.(0), ids.(1)) seeds ~p1 ~p2 ~s1 ~s2
          ~select:select_all
      in
      let closed = Distinct.l_estimate classes ~p1 ~p2 in
      let ht = Distinct.ht_estimate classes ~p1 ~p2 in
      let estimate, provenance =
        (* Degradation ladder: machine-derived table first, closed form
           when Algorithm 1 fails on this probability pair. *)
        match Designer.solve_order_cached ~cache:or_cache (or_problem ~p1 ~p2) with
        | Ok table ->
            let flat = or_table ~p1 ~p2 table in
            ( eval_or_flat flat seeds ~ids:(ids.(0), ids.(1)) ~p1 ~p2 ~s1 ~s2,
              "designer" )
        | Error cause ->
            Numerics.Robust.note_degradation ~site:"server.query.or"
              ~fallback:"closed-form"
              (Numerics.Robust.fail Numerics.Robust.Designer
                 (Numerics.Robust.Invalid_input cause));
            (closed, "closed-form")
      in
      [ ("estimate", P.jfloat estimate); ("estimator", P.jstr "or-l");
        ("provenance", P.jstr provenance); ("closed_form", P.jfloat closed);
        ("ht", P.jfloat ht) ]
  | _ ->
      let m = Distinct.Multi.create ~probs in
      let l = Distinct.Multi.estimate ~ids m seeds ~samples ~select:select_all in
      let ht =
        Distinct.Multi.ht_estimate ~ids ~probs seeds ~samples ~select:select_all
      in
      [ ("estimate", P.jfloat l); ("estimator", P.jstr "or-multi-l");
        ("provenance", P.jstr "general-solver"); ("ht", P.jfloat ht) ]

let run_distinct st insts =
  let seeds = Store.seeds st in
  let probs =
    Array.of_list (List.map (fun i -> (Store.instance_config i).Store.p) insts)
  in
  let ids = Array.of_list (List.map Store.id insts) in
  let samples = Array.of_list (List.map Store.binary_sample insts) in
  match insts with
  | [ _; _ ] ->
      let p1 = probs.(0) and p2 = probs.(1) in
      let classes =
        Distinct.classify ~ids:(ids.(0), ids.(1)) seeds ~p1 ~p2
          ~s1:samples.(0) ~s2:samples.(1) ~select:select_all
      in
      [ ("estimate", P.jfloat (Distinct.l_estimate classes ~p1 ~p2));
        ("estimator", P.jstr "distinct-l");
        ("u", P.jfloat (Distinct.u_estimate classes ~p1 ~p2));
        ("ht", P.jfloat (Distinct.ht_estimate classes ~p1 ~p2));
        ("f1q", P.jint classes.Distinct.f1q);
        ("fq1", P.jint classes.Distinct.fq1);
        ("f11", P.jint classes.Distinct.f11);
        ("f10", P.jint classes.Distinct.f10);
        ("f01", P.jint classes.Distinct.f01) ]
  | _ ->
      let m = Distinct.Multi.create ~probs in
      let l = Distinct.Multi.estimate ~ids m seeds ~samples ~select:select_all in
      let ht =
        Distinct.Multi.ht_estimate ~ids ~probs seeds ~samples ~select:select_all
      in
      [ ("estimate", P.jfloat l); ("estimator", P.jstr "distinct-multi-l");
        ("ht", P.jfloat ht) ]

let run_dominance st insts =
  let ps = pps_samples_of st insts in
  let r = List.length insts in
  let max_ht = Aggregates.Dominance.max_dominance_ht ps ~select:select_all in
  let min_ht = Aggregates.Dominance.min_dominance_ht ps ~select:select_all in
  let fields =
    [ ("max_ht", P.jfloat max_ht); ("min_ht", P.jfloat min_ht) ]
  in
  if r = 2 then
    let l = Aggregates.Dominance.max_dominance_l ps ~select:select_all in
    (("estimate", P.jfloat l) :: ("estimator", P.jstr "maxdom-l") :: fields)
  else
    (("estimate", P.jfloat max_ht) :: ("estimator", P.jstr "maxdom-ht")
    :: fields)

(* Similarity / distance queries: the union and intersection sum
   aggregates through the Monotone L* engine, one columnar walk for
   both ({!Aggregates.Similarity.sums_flat}), with jaccard and l1
   derived from the pair. Guard degradations (a poisoned per-key
   estimate clamped to 0) surface in the response's [degradations]
   field like every other ladder. Shared-seed stores only: under
   independent seeds the joint inclusion law is a product, not the
   diagonal the L* forms integrate over, so the engine refuses rather
   than serve a silently biased answer. *)
let run_similarity st kind insts =
  match (Store.config st).Store.mode with
  | Sampling.Seeds.Independent ->
      Error
        "similarity queries need coordinated samples: restart with shared \
         seeds (serve --shared-seeds)"
  | Sampling.Seeds.Shared -> (
      match (kind, insts) with
      | P.L1, _ :: _ :: _ :: _ ->
          Error
            (Printf.sprintf "l1 takes exactly two instances (got %d)"
               (List.length insts))
      | _ ->
          let ps = pps_samples_of st insts in
          let s = Aggregates.Similarity.sums_flat ps ~select:select_all in
          let tail =
            [ ("union", P.jfloat s.Aggregates.Similarity.union_hat);
              ("intersection", P.jfloat s.Aggregates.Similarity.inter_hat) ]
          in
          let estimate, estimator =
            match kind with
            | P.Union -> (s.Aggregates.Similarity.union_hat, "union-lstar")
            | P.Intersection ->
                (s.Aggregates.Similarity.inter_hat, "intersection-lstar")
            | P.Jaccard -> (Aggregates.Similarity.jaccard s, "jaccard-lstar")
            | _ -> (Aggregates.Similarity.l1 s, "l1-lstar")
          in
          Ok
            (("estimate", P.jfloat estimate)
            :: ("estimator", P.jstr estimator)
            :: tail))

let query t kind names =
  let st = t.t_store in
  let resolve name =
    match Store.find st name with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown instance %S" name)
  in
  let rec resolve_all = function
    | [] -> Ok []
    | n :: rest ->
        Result.bind (resolve n) (fun i ->
            Result.map (fun is -> i :: is) (resolve_all rest))
  in
  match resolve_all names with
  | Error _ as e -> e
  | Ok insts ->
      let kind_name = P.query_kind_name kind in
      Numerics.Obs.span ~cat:"server" ("server.query/" ^ kind_name)
      @@ fun () ->
      Store.flush st;
      let before = Numerics.Robust.degradation_count () in
      let fields_r =
        match kind with
        | P.Max -> Ok (run_max st insts)
        | P.Or -> Ok (run_or st insts)
        | P.Distinct -> Ok (run_distinct st insts)
        | P.Dominance -> Ok (run_dominance st insts)
        | P.Jaccard | P.L1 | P.Union | P.Intersection ->
            run_similarity st kind insts
      in
      Result.map
        (fun fields ->
          let degraded = Numerics.Robust.degradation_count () - before in
          P.ok_fields
            (("kind", P.jstr kind_name)
            :: ("instances", names_field insts)
            :: ("r", P.jint (List.length insts))
            :: fields
            @ [ ("degradations", P.jint degraded) ]))
        fields_r

let instance_stats inst =
  let cfg = Store.instance_config inst in
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> P.jstr k ^ ":" ^ v)
         [ ("name", P.jstr (Store.name inst)); ("id", P.jint (Store.id inst));
           ("records", P.jint (Store.records inst));
           ("volume", P.jfloat (Store.volume inst));
           ("cardinality", P.jint (Store.cardinality inst));
           ("tau", P.jfloat cfg.Store.tau); ("k", P.jint cfg.Store.k);
           ("p", P.jfloat cfg.Store.p);
           ( "pps_size",
             P.jint (List.length (Store.pps_sample inst).Sampling.Poisson.entries)
           );
           ( "bk_size",
             P.jint
               (List.length (Store.bottom_k inst).Sampling.Bottom_k.entries) );
           ("binary_size", P.jint (List.length (Store.binary_sample inst))) ])
  ^ "}"

let shard_stats_json st =
  let items =
    List.map
      (fun (s : Store.shard_stats) ->
        Printf.sprintf "{\"shard\":%d,\"queue_depth\":%d,\"applied\":%d}"
          s.Store.shard s.Store.queue_depth s.Store.applied)
      (Store.shard_stats st)
  in
  "[" ^ String.concat "," items ^ "]"

let run_stats st =
  Store.flush st;
  let insts = Store.instances st in
  P.ok_fields
    [ ("instances",
       "[" ^ String.concat "," (List.map instance_stats insts) ^ "]");
      ("shards", shard_stats_json st);
      ("pending", P.jint (Store.pending st));
      ("degradations", P.jint (Numerics.Robust.degradation_count ())) ]

(* Mutating requests follow the write-ahead discipline: validate (no
   side effect), log to the WAL, then apply. An op that fails to log is
   answered as an error and never applied — the log is always a superset
   of acknowledged state, so replay reproduces it exactly. *)
let log_op t op =
  match t.t_wal with None -> Ok () | Some wal -> Wal.append wal op

(* Back-off hint: proportional to how deep the shard backlog is — a
   drain pass clears thousands of records per millisecond, so the
   constant is deliberately small. *)
let overloaded_response depth limit =
  P.error ~kind:"overloaded"
    ~retry_after_ms:(1 + (depth / 1024))
    (Printf.sprintf "overloaded: %d records pending on shard (limit %d)" depth
       limit)

(* One batch = one admission check, one WAL frame (group commit), one
   mailbox CAS — same write-ahead discipline as single INGEST, amortized
   over the whole batch. All-or-nothing end to end: a rejected or
   overloaded batch applies no record and logs no frame. *)
let handle_ingest_many t ~name records =
  let st = t.t_store in
  match Store.check_ingest_many st ~name ~records with
  | Error (Store.Overloaded { depth; limit }) -> overloaded_response depth limit
  | Error (Store.Rejected m) -> P.error m
  | Ok () -> (
      match log_op t (Wal.Ingest_batch { name; records }) with
      | Error m -> P.error ~kind:"wal" m
      | Ok () -> (
          match Store.ingest_many st ~name ~records with
          | Ok () ->
              P.ok_fields [ ("ingested", P.jint (Array.length records)) ]
          | Error e -> P.error (Store.ingest_error_to_string e)))

let handle_request t req =
  let st = t.t_store in
  match req with
  | P.Hello _ -> (P.ok_fields [ ("protocol", P.jint P.version) ], Continue)
  | P.Create { name; tau; k; p } -> (
      (* Pre-resolve defaults and pre-check the name so the logged op is
         self-contained (replay is independent of server defaults) and
         logging cannot be followed by a failing apply. *)
      let cfg = Store.config st in
      let tau = Option.value tau ~default:cfg.Store.default_tau in
      let k = Option.value k ~default:cfg.Store.default_k in
      let p = Option.value p ~default:cfg.Store.default_p in
      if Store.find st name <> None then
        (P.error (Printf.sprintf "instance %S already exists" name), Continue)
      else
        match log_op t (Wal.Create { name; tau; k; p }) with
        | Error m -> (P.error ~kind:"wal" m, Continue)
        | Ok () -> (
            match Store.create_instance st ~name ~tau ~k ~p () with
            | Ok inst ->
                ( P.ok_fields
                    [ ("name", P.jstr name); ("id", P.jint (Store.id inst));
                      ("tau", P.jfloat tau); ("k", P.jint k);
                      ("p", P.jfloat p) ],
                  Continue )
            | Error m -> (P.error m, Continue)))
  | P.Ingest { name; key; weight } -> (
      match Store.check_ingest st ~name ~weight with
      | Error (Store.Overloaded { depth; limit }) ->
          (overloaded_response depth limit, Continue)
      | Error (Store.Rejected m) -> (P.error m, Continue)
      | Ok () -> (
          match log_op t (Wal.Ingest { name; key; weight }) with
          | Error m -> (P.error ~kind:"wal" m, Continue)
          | Ok () -> (
              match Store.ingest st ~name ~key ~weight with
              | Ok () -> (P.ok_fields [], Continue)
              | Error e -> (P.error (Store.ingest_error_to_string e), Continue))))
  | P.Ingest_many { name = _; count } ->
      (* The header alone is not executable — the [count] body lines are
         connection-level framing, collected by the daemon's event loop
         (or any transport) and executed via [handle_ingest_many]. *)
      ( P.error
          (Printf.sprintf
             "INGESTN header without its %d body lines (batched framing is \
              connection-level)" count),
        Continue )
  | P.Query { kind; names } -> (
      match query t kind names with
      | Ok response -> (response, Continue)
      | Error m ->
          (* Every query failure is a fix-your-request condition (unknown
             instance, wrong arity, wrong seed mode) — say so in a
             machine-readable way. *)
          (P.error ~kind:"bad_request" m, Continue))
  | P.Snapshot path -> (
      Store.flush st;
      match Snapshot.write st ~path with
      | Error m -> (P.error m, Continue)
      | Ok n -> (
          let base = [ ("path", P.jstr path); ("instances", P.jint n) ] in
          (* With a WAL attached, a manual SNAPSHOT doubles as a
             checkpoint: the log rolls over and replay-on-restart
             shortens to the delta since this point. *)
          match t.t_wal with
          | None -> (P.ok_fields base, Continue)
          | Some wal -> (
              match Wal.checkpoint wal st with
              | Ok epoch ->
                  (P.ok_fields (base @ [ ("epoch", P.jint epoch) ]), Continue)
              | Error m -> (P.error ~kind:"wal" m, Continue))))
  | P.Pull name -> (
      match Store.find st name with
      | None ->
          (P.error (Printf.sprintf "unknown instance %S" name), Continue)
      | Some inst ->
          Store.flush st;
          let cfg = Store.config st in
          let lines = Merge.payload (Store.export_summary inst) in
          ( P.ok_lines
              [ ("name", P.jstr name); ("id", P.jint (Store.id inst));
                ("master", P.jint cfg.Store.master);
                ("mode", P.jstr (Snapshot.mode_name cfg.Store.mode)) ]
              lines,
            Continue ))
  | P.Sync -> (
      Store.flush st;
      (* Checkpoint-then-ship: with a WAL attached the shipped snapshot
         is exactly the new checkpoint's content (same Snapshot lines of
         the same flushed store), so a follower holding the payload holds
         the checkpoint. *)
      let extra =
        match t.t_wal with
        | None -> Ok []
        | Some wal -> (
            match Wal.checkpoint wal st with
            | Ok epoch -> Ok [ ("epoch", P.jint epoch) ]
            | Error m -> Error m)
      in
      match extra with
      | Error m -> (P.error ~kind:"wal" m, Continue)
      | Ok extra ->
          let cfg = Store.config st in
          ( P.ok_lines
              (("instances", P.jint (List.length (Store.instances st)))
               :: ("master", P.jint cfg.Store.master)
               :: ("mode", P.jstr (Snapshot.mode_name cfg.Store.mode))
               :: extra)
              (Snapshot.store_lines st),
            Continue ))
  | P.Stats -> (run_stats st, Continue)
  | P.Flush -> (
      match log_op t Wal.Flush with
      | Error m -> (P.error ~kind:"wal" m, Continue)
      | Ok () ->
          Store.flush st;
          (P.ok_fields [ ("pending", P.jint (Store.pending st)) ], Continue))
  | P.Quit -> (P.ok_fields [ ("bye", P.jstr "quit") ], Close)
  | P.Shutdown -> (P.ok_fields [ ("bye", P.jstr "shutdown") ], Stop)

let handle_line t line =
  match P.parse line with
  | Ok req -> handle_request t req
  | Error e ->
      (* Structured kind so a client that sent an unknown verb or a
         malformed token can tell fix-your-request from back-off — and a
         regression test can pin that the session survives it. *)
      ( P.error ~kind:"bad_request" (Sampling.Io.parse_error_to_string e),
        Continue )
