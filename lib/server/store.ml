module Seeds = Sampling.Seeds

type config = {
  shards : int;
  master : int;
  mode : Seeds.mode;
  default_tau : float;
  default_k : int;
  default_p : float;
  flush_every : int;
  max_inflight : int;
}

let default_config =
  {
    shards = 1;
    master = 42;
    mode = Seeds.Independent;
    default_tau = 100.;
    default_k = 64;
    default_p = 0.05;
    flush_every = 8192;
    max_inflight = 65536;
  }

(* The same bounds CREATE puts on its parameters: a bare CREATE must
   never register an instance that an explicit one would refuse. *)
let check_defaults c =
  if not (Float.is_finite c.default_tau && c.default_tau > 0.) then
    Error (Printf.sprintf "default tau %g must be finite and > 0" c.default_tau)
  else if c.default_k <= 0 then
    Error (Printf.sprintf "default k %d must be > 0" c.default_k)
  else if not (c.default_p > 0. && c.default_p <= 1.) then
    Error (Printf.sprintf "default p %g out of (0,1]" c.default_p)
  else if c.flush_every <= 0 then
    Error (Printf.sprintf "flush_every %d must be > 0" c.flush_every)
  else Ok ()

type instance_config = { tau : float; k : int; p : float }

(* Bottom-k working set: the k+1 smallest current (rank, key) pairs,
   ordered like Bottom_k.sample sorts (rank, then key). *)
module Rank_order = struct
  type t = float * int

  let compare (r1, k1) (r2, k2) =
    match Float.compare r1 r2 with 0 -> Int.compare k1 k2 | c -> c
end

module RankSet = Set.Make (Rank_order)

type instance = {
  id : int;
  i_name : string;
  icfg : instance_config;
  weights : (int, float) Hashtbl.t;
  mutable i_records : int;
  mutable i_volume : float;
  pps_tbl : (int, float) Hashtbl.t;
  binary_tbl : (int, unit) Hashtbl.t;
  mutable bk_set : RankSet.t;
  bk_rank : (int, float) Hashtbl.t;  (* key -> rank, for keys in bk_set *)
}

type record = { r_inst : instance; r_key : int; r_weight : float }

type shard = {
  mailbox : record list Atomic.t;  (* newest first; reversed on drain *)
  depth : int Atomic.t;
  mutable applied : int;  (* mutated by the draining task and install *)
}

type t = {
  cfg : config;
  t_seeds : Seeds.t;
  t_pool : Numerics.Pool.t Lazy.t;
  t_shards : shard array;
  by_name : (string, instance) Hashtbl.t;
  mutable rev_instances : instance list;
  mutable n_instances : int;
  mutable pending_since_flush : int;  (* producer-side; see ingest *)
}

let create ?pool cfg =
  if cfg.shards < 1 then
    invalid_arg (Printf.sprintf "Store.create: shards = %d must be >= 1" cfg.shards);
  let t_pool =
    match pool with
    | Some p -> Lazy.from_val p
    | None -> lazy (Numerics.Pool.create ~domains:cfg.shards ())
  in
  {
    cfg;
    t_seeds = Seeds.create ~master:cfg.master cfg.mode;
    t_pool;
    t_shards =
      Array.init cfg.shards (fun _ ->
          { mailbox = Atomic.make []; depth = Atomic.make 0; applied = 0 });
    by_name = Hashtbl.create 16;
    rev_instances = [];
    n_instances = 0;
    pending_since_flush = 0;
  }

let config t = t.cfg
let seeds t = t.t_seeds
let pool t = Lazy.force t.t_pool

let create_instance t ~name ?tau ?k ?p () =
  if not (Protocol.valid_name name) then
    Error (Printf.sprintf "invalid instance name %S" name)
  else if Hashtbl.mem t.by_name name then
    Error (Printf.sprintf "instance %S already exists" name)
  else begin
    let icfg =
      {
        tau = Option.value tau ~default:t.cfg.default_tau;
        k = Option.value k ~default:t.cfg.default_k;
        p = Option.value p ~default:t.cfg.default_p;
      }
    in
    let id = t.n_instances in
    let inst =
      {
        id;
        i_name = name;
        icfg;
        weights = Hashtbl.create 1024;
        i_records = 0;
        i_volume = 0.;
        pps_tbl = Hashtbl.create 256;
        binary_tbl = Hashtbl.create 256;
        bk_set = RankSet.empty;
        bk_rank = Hashtbl.create 256;
      }
    in
    Hashtbl.add t.by_name name inst;
    t.rev_instances <- inst :: t.rev_instances;
    t.n_instances <- id + 1;
    Ok inst
  end

let find t name = Hashtbl.find_opt t.by_name name
let instances t = List.rev t.rev_instances

(* --- record application (runs on the owning shard's drain task) --- *)

(* Maintain the k+1 smallest (rank, key): ranks are monotone decreasing
   in the accumulated weight, so the running (k+1)-max never grows and a
   key evicted (or rejected) with no further records is correctly out —
   there are already k+1 keys whose pairs are smaller and only shrink. *)
let bk_update seeds inst key v =
  let rank =
    Seeds.rank seeds Sampling.Rank.PPS ~instance:inst.id ~key ~w:v
  in
  let cap = inst.icfg.k + 1 in
  match Hashtbl.find_opt inst.bk_rank key with
  | Some old_rank ->
      inst.bk_set <- RankSet.add (rank, key) (RankSet.remove (old_rank, key) inst.bk_set);
      Hashtbl.replace inst.bk_rank key rank
  | None ->
      if RankSet.cardinal inst.bk_set < cap then begin
        inst.bk_set <- RankSet.add (rank, key) inst.bk_set;
        Hashtbl.replace inst.bk_rank key rank
      end
      else
        let ((_, max_key) as max_elt) = RankSet.max_elt inst.bk_set in
        if Rank_order.compare (rank, key) max_elt < 0 then begin
          inst.bk_set <- RankSet.add (rank, key) (RankSet.remove max_elt inst.bk_set);
          Hashtbl.remove inst.bk_rank max_key;
          Hashtbl.replace inst.bk_rank key rank
        end

let apply seeds inst key w =
  inst.i_records <- inst.i_records + 1;
  inst.i_volume <- inst.i_volume +. w;
  let v0 =
    match Hashtbl.find_opt inst.weights key with Some v -> v | None -> 0.
  in
  let v = v0 +. w in
  Hashtbl.replace inst.weights key v;
  let u = Seeds.seed seeds ~instance:inst.id ~key in
  (* Same inclusion predicate as Poisson.pps_sample; monotone in v, so
     once in, a key only has its recorded value refreshed. *)
  if v >= u *. inst.icfg.tau then Hashtbl.replace inst.pps_tbl key v;
  (* Binary support sample: decided once, on the key's first record. *)
  if v0 = 0. && u <= inst.icfg.p then Hashtbl.replace inst.binary_tbl key ();
  bk_update seeds inst key v

(* --- sharded ingest --- *)

let shard_of t inst = t.t_shards.(inst.id mod t.cfg.shards)

let push shard r =
  let rec go () =
    let old = Atomic.get shard.mailbox in
    if not (Atomic.compare_and_set shard.mailbox old (r :: old)) then go ()
  in
  go ();
  Atomic.incr shard.depth

let drain t shard =
  match Atomic.exchange shard.mailbox [] with
  | [] -> ()
  | backlog ->
      let batch = List.rev backlog in
      let n = List.length batch in
      ignore (Atomic.fetch_and_add shard.depth (-n));
      List.iter (fun r -> apply t.t_seeds r.r_inst r.r_key r.r_weight) batch;
      shard.applied <- shard.applied + n;
      Numerics.Obs.count ~by:n "server.shard.applied"

let flush t =
  t.pending_since_flush <- 0;
  Numerics.Obs.span ~cat:"server" "server.flush" @@ fun () ->
  ignore
    (Numerics.Pool.parallel_map ~grain:1 (pool t) (drain t) t.t_shards)

type ingest_error =
  | Overloaded of { depth : int; limit : int }
  | Rejected of string

let ingest_error_to_string = function
  | Overloaded { depth; limit } ->
      Printf.sprintf "overloaded: %d records pending on shard (limit %d)" depth
        limit
  | Rejected m -> m

(* Validation + admission, with no side effect: the engine runs this
   before logging to the WAL (write-ahead discipline — a record must
   never be logged and then shed, or shed and then logged). Under the
   single-producer contract a passing check cannot turn into a shed by
   the time the matching [ingest] runs: only this thread grows the
   mailbox. *)
let check_ingest_i t ~name ~weight =
  if not (Float.is_finite weight) || weight <= 0. then
    Error (Rejected (Printf.sprintf "weight %g must be finite and > 0" weight))
  else
    match Hashtbl.find_opt t.by_name name with
    | None -> Error (Rejected (Printf.sprintf "unknown instance %S" name))
    | Some inst ->
        let depth = Atomic.get (shard_of t inst).depth in
        if depth >= t.cfg.max_inflight then begin
          Numerics.Obs.count "server.ingest.shed";
          Error (Overloaded { depth; limit = t.cfg.max_inflight })
        end
        else Ok inst

let check_ingest t ~name ~weight =
  Result.map (fun (_ : instance) -> ()) (check_ingest_i t ~name ~weight)

let ingest t ~name ~key ~weight =
  match check_ingest_i t ~name ~weight with
  | Error e -> Error e
  | Ok inst ->
      Numerics.Obs.count "server.ingest";
      push (shard_of t inst) { r_inst = inst; r_key = key; r_weight = weight };
      t.pending_since_flush <- t.pending_since_flush + 1;
      if t.pending_since_flush >= t.cfg.flush_every then flush t;
      Ok ()

(* Batch admission is all-or-nothing: every weight validated up front,
   and the whole batch shed when it would push the shard past
   [max_inflight] (depth + n > limit reduces to the single-record
   depth >= limit check at n = 1) — a batch is never half-applied. *)
let check_ingest_many_i t ~name ~records =
  let n = Array.length records in
  if n = 0 then Error (Rejected "empty batch")
  else begin
    let bad = ref None in
    Array.iter
      (fun (_, w) ->
        if !bad = None && (not (Float.is_finite w) || w <= 0.) then
          bad := Some w)
      records;
    match !bad with
    | Some w ->
        Error
          (Rejected (Printf.sprintf "weight %g must be finite and > 0" w))
    | None -> (
        match Hashtbl.find_opt t.by_name name with
        | None -> Error (Rejected (Printf.sprintf "unknown instance %S" name))
        | Some inst ->
            let depth = Atomic.get (shard_of t inst).depth in
            if depth + n > t.cfg.max_inflight then begin
              Numerics.Obs.count "server.ingest.shed";
              Error (Overloaded { depth; limit = t.cfg.max_inflight })
            end
            else Ok inst)
  end

let check_ingest_many t ~name ~records =
  Result.map (fun (_ : instance) -> ()) (check_ingest_many_i t ~name ~records)

(* One CAS publishes the whole batch: the cells are prepended in reverse
   so the drain's [List.rev] restores arrival order — per-instance
   application order is exactly as if each record had been pushed one at
   a time. All records of a batch target one instance, hence one shard. *)
let push_many shard inst records =
  let n = Array.length records in
  let rec go () =
    let old = Atomic.get shard.mailbox in
    let cells = ref old in
    for i = 0 to n - 1 do
      let key, weight = records.(i) in
      cells := { r_inst = inst; r_key = key; r_weight = weight } :: !cells
    done;
    if not (Atomic.compare_and_set shard.mailbox old !cells) then go ()
  in
  go ();
  ignore (Atomic.fetch_and_add shard.depth n)

let ingest_many t ~name ~records =
  match check_ingest_many_i t ~name ~records with
  | Error e -> Error e
  | Ok inst ->
      let n = Array.length records in
      Numerics.Obs.count ~by:n "server.ingest";
      Numerics.Obs.count "server.ingest.batch";
      push_many (shard_of t inst) inst records;
      t.pending_since_flush <- t.pending_since_flush + n;
      if t.pending_since_flush >= t.cfg.flush_every then flush t;
      Ok ()

let pending t =
  Array.fold_left (fun acc s -> acc + Atomic.get s.depth) 0 t.t_shards

(* --- reads --- *)

let id inst = inst.id
let name inst = inst.i_name
let instance_config inst = inst.icfg
let records inst = inst.i_records
let volume inst = inst.i_volume
let cardinality inst = Hashtbl.length inst.weights

(* Every export below goes through these two helpers: hashtable
   iteration order depends on insertion history, so anything emitted to
   a snapshot, a STATS response or a merge payload is sorted first —
   byte-stable regardless of ingestion order (regression-tested by
   diffing snapshots of permuted streams). *)
let sorted_entries tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)

let sorted_keys tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort Int.compare

let to_instance inst = Sampling.Instance.of_assoc (sorted_entries inst.weights)

let pps_sample inst =
  {
    Sampling.Poisson.instance_id = inst.id;
    tau = inst.icfg.tau;
    entries = sorted_entries inst.pps_tbl;
  }

let bottom_k inst =
  let k = inst.icfg.k in
  let all = RankSet.elements inst.bk_set in
  let rec take n = function
    | [] -> ([], infinity)
    | (rank, key) :: rest ->
        if n = 0 then ([], rank)
        else
          let kept, thr = take (n - 1) rest in
          ( {
              Sampling.Bottom_k.key;
              value = Hashtbl.find inst.weights key;
              rank;
            }
            :: kept,
            thr )
  in
  let entries, threshold = take k all in
  {
    Sampling.Bottom_k.instance_id = inst.id;
    k;
    family = Sampling.Rank.PPS;
    entries;
    threshold;
  }

let binary_sample inst = sorted_keys inst.binary_tbl

(* --- mergeable summary export / install (cluster mode) --- *)

type summary = {
  s_name : string;
  s_id : int;
  s_cfg : instance_config;
  s_records : int;
  s_volume : float;
  s_weights : (int * float) list;
  s_pps : (int * float) list;
  s_binary : int list;
  s_bk : (float * int) list;
}

let export_summary inst =
  {
    s_name = inst.i_name;
    s_id = inst.id;
    s_cfg = inst.icfg;
    s_records = inst.i_records;
    s_volume = inst.i_volume;
    s_weights = sorted_entries inst.weights;
    s_pps = sorted_entries inst.pps_tbl;
    s_binary = sorted_keys inst.binary_tbl;
    s_bk = RankSet.elements inst.bk_set;
  }

(* The summary is installed verbatim under its *recorded* id: seed
   derivation and the shard assignment both key off [s_id], so a store
   materialized from a subset of another store's instances answers
   queries with the original seeds. The summary is the instance's whole
   state, so the installed instance is indistinguishable from the
   exported one — including under further ingest, and in STATS, whose
   per-shard [applied] counter is credited with the installed records. *)
let install_summary t s =
  if not (Protocol.valid_name s.s_name) then
    Error (Printf.sprintf "invalid instance name %S" s.s_name)
  else if Hashtbl.mem t.by_name s.s_name then
    Error (Printf.sprintf "instance %S already exists" s.s_name)
  else if s.s_id < 0 then
    Error (Printf.sprintf "invalid instance id %d" s.s_id)
  else begin
    let inst =
      {
        id = s.s_id;
        i_name = s.s_name;
        icfg = s.s_cfg;
        weights = Hashtbl.create (max 16 (List.length s.s_weights));
        i_records = s.s_records;
        i_volume = s.s_volume;
        pps_tbl = Hashtbl.create (max 16 (List.length s.s_pps));
        binary_tbl = Hashtbl.create (max 16 (List.length s.s_binary));
        bk_set = RankSet.empty;
        bk_rank = Hashtbl.create 256;
      }
    in
    List.iter (fun (k, v) -> Hashtbl.replace inst.weights k v) s.s_weights;
    List.iter (fun (k, v) -> Hashtbl.replace inst.pps_tbl k v) s.s_pps;
    List.iter (fun k -> Hashtbl.replace inst.binary_tbl k ()) s.s_binary;
    List.iter
      (fun (rank, key) ->
        inst.bk_set <- RankSet.add (rank, key) inst.bk_set;
        Hashtbl.replace inst.bk_rank key rank)
      s.s_bk;
    let sh = shard_of t inst in
    sh.applied <- sh.applied + s.s_records;
    Hashtbl.add t.by_name s.s_name inst;
    t.rev_instances <- inst :: t.rev_instances;
    t.n_instances <- max t.n_instances (s.s_id + 1);
    Ok inst
  end

type shard_stats = { shard : int; queue_depth : int; applied : int }

let shard_stats t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         { shard = i; queue_depth = Atomic.get s.depth; applied = s.applied })
       t.t_shards)
