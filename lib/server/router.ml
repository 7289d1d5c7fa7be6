(* Cluster front door: N daemons each own a hash slice of the key
   space; this process fans writes to owners and answers queries by
   pulling per-instance summaries from every daemon and merging them
   locally (Merge), then running the ordinary Engine over the merged
   store. Summing per-daemon *estimates* would break bit-identity
   (float addition order differs per partition count); merging the
   *summaries* and estimating once reproduces the single-node float
   walk exactly.

   The router never mutates a Store itself — every backend effect
   travels over the wire protocol (enforced by bench/lint.sh), the
   merged query stores are built by Merge.materialize from pulled
   payloads, and SYNC / SNAPSHOT hand the merged summaries straight to
   the Snapshot writer. *)

module P = Protocol

let ( let* ) = Result.bind

(* [f] over [xs] in order; the first [Error] stops the walk. *)
let map_result f xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    (Ok []) xs
  |> Result.map List.rev

type t = {
  backends : Client.t array;
  retry : Client.retry;
  cfg : Store.config;  (* must match the daemons' master/mode *)
  seeds : Sampling.Seeds.t;
  pool : Numerics.Pool.t;
  mutable names : string list;  (* created instances, in creation order *)
}

(* Placement: a fixed salt (independent of any store config) hashes the
   key; the top 63 bits reduce mod N. Deterministic across router
   restarts — a key's owner is a pure function of (key, N). *)
let placement_salt = 0x6f707473616d70L

let owner ~backends key =
  let h = Numerics.Hashing.hash_int ~salt:placement_salt key in
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int backends))

let backend_count t = Array.length t.backends

let close t =
  Array.iter Client.close t.backends;
  Numerics.Pool.shutdown t.pool

(* --- catalog bootstrap ---

   The router mirrors the instance catalog (it fans every CREATE), but a
   *restarted* router must relearn it: SYNC any backend and read the
   instance names out of the parsed snapshot. Backend 0 is as good as
   any — CREATE fans to all daemons in order, so every daemon holds the
   identical catalog. The SYNC header also carries the daemon's master
   seed and mode, checked against ours: a router merging under the wrong
   seed universe would answer garbage with full confidence. *)

let check_universe cfg ~master ~mode_s ~where =
  if master <> string_of_int cfg.Store.master then
    Error
      (Printf.sprintf "%s has master seed %s, router has %d" where master
         cfg.Store.master)
  else if mode_s <> Snapshot.mode_name cfg.Store.mode then
    Error
      (Printf.sprintf "%s samples in %s mode, router in %s" where mode_s
         (Snapshot.mode_name cfg.Store.mode))
  else Ok ()

(* The JSON header of a PULL / SYNC response: an error passes through,
   and the seed universe must be ours. *)
let check_header cfg ~where header =
  if not (P.json_ok header) then
    Error
      (Printf.sprintf "%s: %s" where
         (Option.value ~default:header (P.json_field "error" header)))
  else
    match (P.json_field "master" header, P.json_field "mode" header) with
    | Some master, Some mode_s -> check_universe cfg ~master ~mode_s ~where
    | _ -> Error (Printf.sprintf "%s: header without master/mode: %s" where header)

let catalog_of_sync cfg (header, lines) =
  let* () = check_header cfg ~where:"backend 0" header in
  match Snapshot.of_lines lines with
    | Ok (_, summaries) -> Ok (List.map (fun s -> s.Store.s_name) summaries)
    | Error e ->
        Error ("bad SYNC payload: " ^ Sampling.Io.parse_error_to_string e)

let connect ?(retry = Client.default_retry) ~store_cfg addrs =
  match addrs with
  | [] -> Error "router needs at least one backend"
  | _ -> (
      let cfg = { store_cfg with Store.shards = 1 } in
      let rec dial acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | addr :: rest -> (
            match Client.connect addr with
            | Ok c -> dial (c :: acc) rest
            | Error m ->
                List.iter Client.close acc;
                Error
                  (Printf.sprintf "backend %d: %s" (List.length acc) m))
      in
      match dial [] addrs with
      | Error _ as e -> e
      | Ok backends -> (
          let t =
            {
              backends;
              retry;
              cfg;
              seeds =
                Sampling.Seeds.create ~master:cfg.Store.master cfg.Store.mode;
              pool = Numerics.Pool.create ~domains:1 ();
              names = [];
            }
          in
          match
            Result.bind (Client.request_lines backends.(0) "SYNC")
              (catalog_of_sync cfg)
          with
          | Ok names ->
              t.names <- names;
              Ok t
          | Error m ->
              close t;
              Error (Printf.sprintf "catalog bootstrap: %s" m)))

(* --- fan-out plumbing --- *)

(* Sequential fan-out, first failure wins: a transport error answers a
   structured backend error; a backend's own error response passes
   through verbatim. *)
let backend_ids t = List.init (backend_count t) Fun.id

let fwd_all t line =
  map_result
    (fun i ->
      match Client.request_retry ~retry:t.retry t.backends.(i) line with
      | Error m ->
          Error (P.error ~kind:"backend" (Printf.sprintf "backend %d: %s" i m))
      | Ok resp when not (P.json_ok resp) -> Error resp
      | Ok resp -> Ok resp)
    (backend_ids t)

let pull_summary t ~name i =
  let where = Printf.sprintf "backend %d" i in
  let* header, lines =
    Result.map_error
      (Printf.sprintf "%s: %s" where)
      (Client.request_lines t.backends.(i) ("PULL " ^ name))
  in
  let* () = check_header t.cfg ~where header in
  Result.map_error
    (Printf.sprintf "%s: bad summary payload: %s" where)
    (Merge.of_lines lines)

let merged_summary t ~name =
  let* summaries = map_result (pull_summary t ~name) (backend_ids t) in
  Merge.merge_all t.seeds summaries

let merged_summaries t names =
  map_result (fun name -> merged_summary t ~name) names

let merged_store t names =
  let* summaries = merged_summaries t names in
  Merge.materialize ~pool:t.pool t.cfg summaries

(* --- request handling --- *)

let resolved_create t ~name ~tau ~k ~p =
  Printf.sprintf "CREATE %s tau=%h k=%d p=%h" name
    (Option.value tau ~default:t.cfg.Store.default_tau)
    (Option.value k ~default:t.cfg.Store.default_k)
    (Option.value p ~default:t.cfg.Store.default_p)

let on_request t (req : P.request) : string * Engine.action =
  match req with
  | P.Hello _ -> (P.ok_fields [ ("protocol", P.jint P.version) ], Engine.Continue)
  | P.Create { name; tau; k; p } -> (
      (* Defaults resolve against the *router's* config before fan-out,
         so every daemon registers identical parameters whatever its own
         defaults — the merge-compatibility invariant. *)
      match fwd_all t (resolved_create t ~name ~tau ~k ~p) with
      | Error resp -> (resp, Engine.Continue)
      | Ok responses ->
          t.names <- t.names @ [ name ];
          (* All backends answered identically (same resolved line, same
             creation order); relay backend 0's response. *)
          (List.hd responses, Engine.Continue))
  | P.Ingest { name; key; weight } -> (
      let b = owner ~backends:(backend_count t) key in
      match
        Client.request_retry ~retry:t.retry t.backends.(b)
          (Printf.sprintf "INGEST %s %d %h" name key weight)
      with
      | Ok resp -> (resp, Engine.Continue)
      | Error m ->
          ( P.error ~kind:"backend" (Printf.sprintf "backend %d: %s" b m),
            Engine.Continue ))
  | P.Ingest_many { count; _ } ->
      ( P.error
          (Printf.sprintf
             "INGESTN header without its %d body lines (batched framing is \
              connection-level)" count),
        Engine.Continue )
  | P.Query { kind; names } -> (
      match merged_store t names with
      | Error m -> (P.error m, Engine.Continue)
      | Ok st -> (
          match Engine.query (Engine.create st) kind names with
          | Ok response -> (response, Engine.Continue)
          | Error m ->
              (* Same structured kind as a single node: a query the
                 merged store refuses is a client mistake, not a backend
                 fault. *)
              (P.error ~kind:"bad_request" m, Engine.Continue)))
  | P.Pull name -> (
      (* Merged PULL: what a single node holding the union would answer —
         lets routers stack and gives operators one-stop summaries. *)
      match merged_summary t ~name with
      | Error m -> (P.error m, Engine.Continue)
      | Ok s ->
          ( P.ok_lines
              [ ("name", P.jstr name); ("id", P.jint s.Store.s_id);
                ("master", P.jint t.cfg.Store.master);
                ("mode", P.jstr (Snapshot.mode_name t.cfg.Store.mode)) ]
              (Merge.payload s),
            Engine.Continue ))
  | P.Sync -> (
      match merged_summaries t t.names with
      | Error m -> (P.error m, Engine.Continue)
      | Ok summaries ->
          ( P.ok_lines
              [ ("instances", P.jint (List.length t.names));
                ("master", P.jint t.cfg.Store.master);
                ("mode", P.jstr (Snapshot.mode_name t.cfg.Store.mode)) ]
              (Snapshot.lines t.cfg summaries),
            Engine.Continue ))
  | P.Snapshot path -> (
      (* Whole-cluster snapshot, written router-side. *)
      match merged_summaries t t.names with
      | Error m -> (P.error m, Engine.Continue)
      | Ok summaries -> (
          match Snapshot.write_summaries t.cfg summaries ~path with
          | Ok n ->
              ( P.ok_fields
                  [ ("path", P.jstr path); ("instances", P.jint n) ],
                Engine.Continue )
          | Error m -> (P.error m, Engine.Continue)))
  | P.Stats -> (
      (* Merged view: instance counters as a single node holding the
         union would report them; shard/pending counters describe the
         router's local merged store (one shard holding every merged
         record, nothing pending). *)
      match merged_store t t.names with
      | Error m -> (P.error m, Engine.Continue)
      | Ok st ->
          let response, _ = Engine.handle_request (Engine.create st) P.Stats in
          (response, Engine.Continue))
  | P.Flush -> (
      match fwd_all t "FLUSH" with
      | Error resp -> (resp, Engine.Continue)
      | Ok responses ->
          let pending =
            List.fold_left
              (fun acc r ->
                acc
                + Option.value ~default:0
                    (Option.bind (P.json_field "pending" r) int_of_string_opt))
              0 responses
          in
          (P.ok_fields [ ("pending", P.jint pending) ], Engine.Continue))
  | P.Quit -> (P.ok_fields [ ("bye", P.jstr "quit") ], Engine.Close)
  | P.Shutdown ->
      (* Stops the router's loop only; the daemons are separate
         processes with their own lifecycles. *)
      (P.ok_fields [ ("bye", P.jstr "shutdown") ], Engine.Stop)

(* One batch, split by ownership: each daemon receives its records as
   one INGESTN (order within a partition preserved — per-key application
   order is what summaries depend on, and a key never spans partitions).
   All-or-nothing holds per partition; a failing partition reports the
   backend's response verbatim and leaves later partitions unsent. *)
let on_batch t ~name records =
  let nb = backend_count t in
  let parts = Array.make nb [] in
  Array.iter
    (fun ((key, _) as r) ->
      let o = owner ~backends:nb key in
      parts.(o) <- r :: parts.(o))
    records;
  let rec go i total =
    if i = nb then P.ok_fields [ ("ingested", P.jint total) ]
    else
      match parts.(i) with
      | [] -> go (i + 1) total
      | part -> (
          let sub = Array.of_list (List.rev part) in
          match Client.ingest_many ~retry:t.retry t.backends.(i) ~name sub with
          | Error m ->
              P.error ~kind:"backend" (Printf.sprintf "backend %d: %s" i m)
          | Ok resp when not (P.json_ok resp) -> resp
          | Ok _ -> go (i + 1) (total + Array.length sub))
  in
  go 0 0

let handlers t =
  {
    Daemon.on_request = (fun req -> on_request t req);
    on_batch = (fun ~name records -> on_batch t ~name records);
  }

let serve ?config t sock = Daemon.serve_handlers ?config (handlers t) sock
let start ?config t = Daemon.start_handlers ?config (handlers t)
