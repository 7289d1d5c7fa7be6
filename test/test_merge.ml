(* The merge algebra behind cluster mode, and the cluster itself.

   In-process: payload round trips, the strict parser's guards, and the
   laws — merge is commutative, associative up to bit-identity, has the
   empty summary as identity, and reproduces a single store's summaries
   bit-for-bit when per-key weight sums are exact (disjoint partitions
   always; overlapping keys with dyadic weights). Ingestion order across
   keys never changes a byte of a snapshot, a PULL payload or STATS.

   End to end: 2- and 4-daemon clusters behind the router answer all
   four query kinds byte-identically to a single daemon that ingested
   everything — including after one daemon is killed and its partition
   recovered from a SYNC-shipped checkpoint on a fresh process. *)

module P = Server.Protocol
module Store = Server.Store
module Merge = Server.Merge
module Engine = Server.Engine
module Router = Server.Router
module Daemon = Server.Daemon
module Client = Server.Client
module Snapshot = Server.Snapshot

let master = 4242
let tau = 50.
let k = 32
let p = 0.2

let cfg ?(shards = 1) ?(mode = Sampling.Seeds.Independent) () =
  { Store.default_config with Store.shards; master; flush_every = 4096; mode }

let seeds ?(mode = Sampling.Seeds.Independent) () =
  Sampling.Seeds.create ~master mode

(* Quarter-unit weights: dyadic rationals whose sums stay exact in
   binary floating point at these magnitudes, so re-associating additions
   (what a merge does to overlapping keys) cannot change a bit. *)
let records ~seed n =
  let rng = Numerics.Prng.create ~seed () in
  Array.init n (fun _ ->
      ( 1 + Numerics.Prng.int rng 512,
        0.25 *. float_of_int (1 + Numerics.Prng.int rng 64) ))

let ingest_all st name recs =
  Array.iter
    (fun (key, weight) ->
      match Store.ingest st ~name ~key ~weight with
      | Ok () -> ()
      | Error e -> Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e))
    recs

(* One store, instances created in a fixed order, each fed its records. *)
let store_of ?mode parts =
  let st = Store.create (cfg ?mode ()) in
  List.iter
    (fun (name, _) ->
      match Store.create_instance st ~name ~tau ~k ~p () with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "create %s: %s" name m)
    parts;
  List.iter (fun (name, recs) -> ingest_all st name recs) parts;
  Store.flush st;
  st

let export st name =
  match Store.find st name with
  | Some inst -> Store.export_summary inst
  | None -> Alcotest.failf "instance %s missing" name

let merge_exn a b =
  match Merge.merge (seeds ()) a b with
  | Ok s -> s
  | Error m -> Alcotest.failf "merge: %s" m

let check_payload msg expected actual =
  Alcotest.(check (list string)) msg (Merge.payload expected)
    (Merge.payload actual)

(* ------------------------------------------------------------------ *)
(* Payload round trip and parser guards                                 *)
(* ------------------------------------------------------------------ *)

let test_payload_roundtrip () =
  let st = store_of [ ("a", records ~seed:11 2000) ] in
  let s = export st "a" in
  let lines = Merge.payload s in
  Alcotest.(check bool) "payload is nonempty" true (List.length lines > 2);
  match Merge.of_lines lines with
  | Error m -> Alcotest.failf "of_lines rejected its own payload: %s" m
  | Ok s' ->
      check_payload "payload round trips bit-for-bit" s s';
      Alcotest.(check int) "records survive" s.Store.s_records
        s'.Store.s_records

let test_of_lines_guards () =
  let st = store_of [ ("a", records ~seed:12 400) ] in
  let lines = Merge.payload (export st "a") in
  let reject msg mutate =
    match Merge.of_lines (mutate lines) with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
    | Error e ->
        Alcotest.(check bool)
          (msg ^ " carries a message")
          true
          (String.length e > 0)
  in
  reject "empty payload" (fun _ -> []);
  reject "missing end" (fun ls ->
      List.filter (fun l -> l <> "end") ls);
  reject "trailing garbage" (fun ls -> ls @ [ "w 9 0x1p0" ]);
  reject "descending keys" (fun ls ->
      List.concat_map
        (fun l ->
          if String.length l > 2 && String.sub l 0 2 = "w " then
            [ l; "w 0 0x1p0" ]
          else [ l ])
        ls);
  reject "sampled key without a weight" (fun ls ->
      List.concat_map
        (fun l ->
          if String.length l > 8 && String.sub l 0 8 = "summary " then
            [ l; "s 1000000 0x1p0" ]
          else [ l ])
        ls);
  reject "section out of order" (fun ls ->
      (* move the first weight line to the very end, after the samples *)
      match
        List.partition
          (fun l -> String.length l > 2 && String.sub l 0 2 = "w ")
          ls
      with
      | w :: ws, rest ->
          List.filter (fun l -> l <> "end") (ws @ rest) @ [ w; "end" ]
      | [], _ -> [ "not a payload" ])

(* ------------------------------------------------------------------ *)
(* The algebra                                                          *)
(* ------------------------------------------------------------------ *)

let test_merge_empty_identity () =
  let st = store_of [ ("a", records ~seed:21 1500) ] in
  let empty_st = store_of [ ("a", [||]) ] in
  let s = export st "a" in
  let e = export empty_st "a" in
  check_payload "empty is a right identity" s (merge_exn s e);
  check_payload "empty is a left identity" s (merge_exn e s)

let test_merge_commutative () =
  let s1 = export (store_of [ ("a", records ~seed:31 1200) ]) "a" in
  let s2 = export (store_of [ ("a", records ~seed:32 1300) ]) "a" in
  check_payload "merge commutes (overlapping keys)" (merge_exn s1 s2)
    (merge_exn s2 s1)

let test_merge_associative () =
  let s1 = export (store_of [ ("a", records ~seed:41 900) ]) "a" in
  let s2 = export (store_of [ ("a", records ~seed:42 900) ]) "a" in
  let s3 = export (store_of [ ("a", records ~seed:43 900) ]) "a" in
  check_payload "merge associates bit-for-bit"
    (merge_exn (merge_exn s1 s2) s3)
    (merge_exn s1 (merge_exn s2 s3))

let test_merge_rejects_mismatch () =
  let s1 = export (store_of [ ("a", records ~seed:51 100) ]) "a" in
  let st2 = Store.create (cfg ()) in
  (match Store.create_instance st2 ~name:"a" ~tau:(tau *. 2.) ~k ~p () with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "create: %s" m);
  Store.flush st2;
  let s2 = export st2 "a" in
  match Merge.merge (seeds ()) s1 s2 with
  | Ok _ -> Alcotest.fail "merging mismatched tau must fail"
  | Error m ->
      Alcotest.(check bool) "diagnostic names the mismatch" true
        (String.length m > 0)

(* merge (ingest A) (ingest B) = ingest (A ∪ B), overlapping keys, on
   dyadic weights — the strongest exactness claim. *)
let test_merge_equals_union_overlap () =
  let ra = records ~seed:61 1100 and rb = records ~seed:62 1400 in
  let sa = export (store_of [ ("a", ra) ]) "a" in
  let sb = export (store_of [ ("a", rb) ]) "a" in
  let union = export (store_of [ ("a", Array.append ra rb) ]) "a" in
  check_payload "merge of overlapping halves equals the union ingest" union
    (merge_exn sa sb)

(* The router's law: partition the stream by key ownership across 1, 2
   and 4 stores; the merged summaries — and every query answer computed
   from them — are bit-identical to the unpartitioned store. Shared-mode
   stores additionally survive a snapshot → restart round trip with
   byte-identical answers (the snapshot header carries the seed mode). *)
let check_partitions_equal_single_node ?mode kinds =
  let names = [ "a"; "b" ] in
  let recs = [ ("a", records ~seed:71 3000); ("b", records ~seed:72 3000) ] in
  let single = store_of ?mode recs in
  let single_engine = Engine.create single in
  let query_all e =
    List.map
      (fun kind ->
        match Engine.query e kind names with
        | Ok r -> r
        | Error m -> Alcotest.failf "query: %s" m)
      kinds
  in
  let reference = query_all single_engine in
  List.iter
    (fun nparts ->
      let stores =
        Array.init nparts (fun _ ->
            let st = Store.create (cfg ?mode ()) in
            List.iter
              (fun name ->
                match Store.create_instance st ~name ~tau ~k ~p () with
                | Ok _ -> ()
                | Error m -> Alcotest.failf "create: %s" m)
              names;
            st)
      in
      List.iter
        (fun (name, rs) ->
          Array.iter
            (fun ((key, weight) : int * float) ->
              let o = Router.owner ~backends:nparts key in
              match Store.ingest stores.(o) ~name ~key ~weight with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e))
            rs)
        recs;
      Array.iter Store.flush stores;
      let merged_summaries =
        List.map
          (fun name ->
            let parts =
              Array.to_list (Array.map (fun st -> export st name) stores)
            in
            match Merge.merge_all (seeds ?mode ()) parts with
            | Ok s -> s
            | Error m -> Alcotest.failf "merge_all: %s" m)
          names
      in
      List.iter2
        (fun name merged ->
          check_payload
            (Printf.sprintf "%s over %d partitions equals single node" name
               nparts)
            (export single name) merged)
        names merged_summaries;
      match Merge.materialize (cfg ?mode ()) merged_summaries with
      | Error m -> Alcotest.failf "materialize: %s" m
      | Ok st ->
          Alcotest.(check (list string))
            (Printf.sprintf "answers over %d partitions bit-identical" nparts)
            reference
            (query_all (Engine.create st));
          (* ... and again on the store a restart would reload. *)
          let reloaded =
            match Snapshot.of_string_r (Snapshot.to_string st) with
            | Ok st' -> st'
            | Error e ->
                Alcotest.failf "snapshot reload: %s"
                  (Sampling.Io.parse_error_to_string e)
          in
          Alcotest.(check (list string))
            (Printf.sprintf
               "answers after snapshot restart bit-identical (%d partitions)"
               nparts)
            reference
            (query_all (Engine.create reloaded)))
    [ 1; 2; 4 ]

let test_partitions_equal_single_node () =
  check_partitions_equal_single_node [ P.Max; P.Or; P.Distinct; P.Dominance ]

let test_partitions_equal_single_node_similarity () =
  check_partitions_equal_single_node ~mode:Sampling.Seeds.Shared
    [ P.Jaccard; P.L1; P.Union; P.Intersection ]

(* Satellite: ingestion order across keys never changes a byte — same
   records forward and reversed give identical snapshots, PULL payloads
   and STATS. (Per-key arrival order is the only order summaries depend
   on; distinct keys make any interleaving equivalent.) *)
let test_order_independent_exports () =
  let n = 1500 in
  let rng = Numerics.Prng.create ~seed:81 () in
  let recs =
    Array.init n (fun i ->
        ((i * 7) + 1, 0.25 *. float_of_int (1 + Numerics.Prng.int rng 64)))
  in
  let rev = Array.of_list (List.rev (Array.to_list recs)) in
  let st1 = store_of [ ("a", recs) ] in
  let st2 = store_of [ ("a", rev) ] in
  Alcotest.(check string) "snapshots byte-identical across ingest orders"
    (Snapshot.to_string st1) (Snapshot.to_string st2);
  check_payload "PULL payloads byte-identical across ingest orders"
    (export st1 "a") (export st2 "a");
  let stats st =
    let response, _ = Engine.handle_request (Engine.create st) P.Stats in
    response
  in
  Alcotest.(check string) "STATS byte-identical across ingest orders"
    (stats st1) (stats st2)

(* ------------------------------------------------------------------ *)
(* End to end: the cluster                                              *)
(* ------------------------------------------------------------------ *)

let connect_exn where = function
  | Ok c -> c
  | Error m -> Alcotest.failf "connect %s: %s" where m

let ok_exn c line =
  match Client.request_retry c line with
  | Ok resp ->
      if not (P.json_ok resp) then
        Alcotest.failf "request %S answered %s" line resp;
      resp
  | Error m -> Alcotest.failf "request %S: %s" line m

let create_line name = Printf.sprintf "CREATE %s tau=%g k=%d p=%g" name tau k p

(* Mixed ingestion — half single INGEST lines, half one INGESTN batch —
   through whatever endpoint [c] is (a daemon or the router). *)
let feed c name recs =
  let n = Array.length recs in
  let half = n / 2 in
  Array.iter
    (fun (key, weight) ->
      ignore (ok_exn c (Printf.sprintf "INGEST %s %d %h" name key weight)))
    (Array.sub recs 0 half);
  match Client.ingest_many c ~name (Array.sub recs half (n - half)) with
  | Ok resp ->
      if not (P.json_ok resp) then Alcotest.failf "ingest_many answered %s" resp
  | Error m -> Alcotest.failf "ingest_many: %s" m

let default_kinds = [ "max"; "or"; "distinct"; "dominance" ]
let similarity_kinds = [ "jaccard"; "l1"; "union"; "intersection" ]

let queries ?(kinds = default_kinds) c =
  List.map (fun kind -> ok_exn c (Printf.sprintf "QUERY %s a b" kind)) kinds

let e2e_recs () =
  [ ("a", records ~seed:91 1200); ("b", records ~seed:92 1200) ]

(* Reference: one daemon, no router. *)
let single_node_answers ?mode ?kinds recs =
  let daemon = Daemon.start (Engine.create (Store.create (cfg ?mode ()))) in
  let c =
    connect_exn "daemon" (Client.connect_tcp ~port:(Daemon.port daemon) ())
  in
  List.iter (fun (name, _) -> ignore (ok_exn c (create_line name))) recs;
  List.iter (fun (name, rs) -> feed c name rs) recs;
  let answers = queries ?kinds c in
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join daemon;
  answers

let cluster_answers ?mode ?kinds ?probe ~nbackends recs =
  let backends =
    Array.init nbackends (fun _ ->
        Daemon.start (Engine.create (Store.create (cfg ?mode ()))))
  in
  let addrs =
    Array.to_list
      (Array.map
         (fun d ->
           Unix.ADDR_INET
             (Unix.inet_addr_of_string "127.0.0.1", Daemon.port d))
         backends)
  in
  let router =
    match Router.connect ~store_cfg:(cfg ?mode ()) addrs with
    | Ok t -> t
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  let rd = Router.start router in
  let c = connect_exn "router" (Client.connect_tcp ~port:(Daemon.port rd) ()) in
  List.iter (fun (name, _) -> ignore (ok_exn c (create_line name))) recs;
  List.iter (fun (name, rs) -> feed c name rs) recs;
  let answers = queries ?kinds c in
  Option.iter (fun f -> f c) probe;
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join rd;
  Router.close router;
  Array.iter
    (fun d ->
      let bc =
        connect_exn "backend" (Client.connect_tcp ~port:(Daemon.port d) ())
      in
      ignore (ok_exn bc "SHUTDOWN");
      Client.close bc;
      Daemon.join d)
    backends;
  answers

let test_e2e_cluster_bit_identical () =
  let recs = e2e_recs () in
  let reference = single_node_answers recs in
  List.iter
    (fun nbackends ->
      Alcotest.(check (list string))
        (Printf.sprintf "%d-daemon cluster bit-identical to single node"
           nbackends)
        reference
        (cluster_answers ~nbackends recs))
    [ 2; 4 ]

(* The similarity verbs through the router: PULL → merge → materialize →
   local L* answers byte-identical to a single shared-seed daemon. The
   probe also pins the router's refusal discipline — an unknown query
   kind is answered [kind="bad_request"] on the same connection, which
   keeps serving afterwards. *)
let test_e2e_cluster_similarity_bit_identical () =
  let recs = e2e_recs () in
  let mode = Sampling.Seeds.Shared in
  let kinds = similarity_kinds @ default_kinds in
  let reference = single_node_answers ~mode ~kinds recs in
  let probe c =
    match Client.request_retry c "QUERY frobnicate a b" with
    | Error m -> Alcotest.failf "router dropped an unknown kind: %s" m
    | Ok resp ->
        Alcotest.(check bool) "unknown kind answered not-ok" false
          (P.json_ok resp);
        Alcotest.(check (option string)) "unknown kind is bad_request"
          (Some "bad_request")
          (P.json_field "kind" resp);
        ignore (ok_exn c "STATS")
  in
  List.iter
    (fun nbackends ->
      Alcotest.(check (list string))
        (Printf.sprintf
           "%d-daemon cluster similarity answers bit-identical to single node"
           nbackends)
        reference
        (cluster_answers ~mode ~kinds ~probe ~nbackends recs))
    [ 2; 4 ]

(* Failover: kill a daemon, recover its partition on a fresh process from
   a SYNC-shipped checkpoint, and keep ingesting — final answers must
   equal a single node that saw everything. Backends live on Unix-socket
   paths so the replacement daemon is reachable at the dead one's
   address. *)
let sock_path i =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "optsample-merge-%d-%d.sock" (Unix.getpid ()) i)

let spawn_unix_daemon ~path engine =
  match Daemon.listen_unix ~path () with
  | Error m -> Alcotest.failf "listen %s: %s" path m
  | Ok sock -> Domain.spawn (fun () -> Daemon.serve engine sock)

let test_e2e_failover_checkpoint () =
  let recs = e2e_recs () in
  let half (name, rs) =
    let n = Array.length rs in
    ((name, Array.sub rs 0 (n / 2)), (name, Array.sub rs (n / 2) (n - n / 2)))
  in
  let first, second = List.split (List.map half recs) in
  let reference = single_node_answers recs in
  let paths = [ sock_path 0; sock_path 1 ] in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths;
  let dom1 =
    spawn_unix_daemon ~path:(List.nth paths 0)
      (Engine.create (Store.create (cfg ())))
  in
  let dom2 =
    spawn_unix_daemon ~path:(List.nth paths 1)
      (Engine.create (Store.create (cfg ())))
  in
  let addrs = List.map (fun p -> Unix.ADDR_UNIX p) paths in
  let router =
    match Router.connect ~store_cfg:(cfg ()) addrs with
    | Ok t -> t
    | Error m -> Alcotest.failf "router connect: %s" m
  in
  let rd = Router.start router in
  let c = connect_exn "router" (Client.connect_tcp ~port:(Daemon.port rd) ()) in
  List.iter (fun (name, _) -> ignore (ok_exn c (create_line name))) recs;
  List.iter (fun (name, rs) -> feed c name rs) first;
  (* Ship backend 0's checkpoint over SYNC, then kill it. *)
  let b0 =
    connect_exn "backend 0" (Client.connect_unix ~path:(List.nth paths 0))
  in
  let shipped =
    match Client.request_lines b0 "SYNC" with
    | Ok (header, lines) ->
        if not (P.json_ok header) then
          Alcotest.failf "SYNC answered %s" header;
        String.concat "\n" lines ^ "\n"
    | Error m -> Alcotest.failf "SYNC: %s" m
  in
  ignore (ok_exn b0 "SHUTDOWN");
  Client.close b0;
  Domain.join dom1;
  (* Recover the partition on a fresh daemon at the same address. *)
  let st0 =
    match Snapshot.of_string_r shipped with
    | Ok st -> st
    | Error e ->
        Alcotest.failf "shipped checkpoint unusable: %s"
          (Sampling.Io.parse_error_to_string e)
  in
  let dom1' = spawn_unix_daemon ~path:(List.nth paths 0) (Engine.create st0) in
  (* Keep ingesting through the router (its connection to backend 0
     re-dials transparently), then compare. *)
  List.iter (fun (name, rs) -> feed c name rs) second;
  Alcotest.(check (list string))
    "answers after failover bit-identical to an uninterrupted single node"
    reference (queries c);
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join rd;
  Router.close router;
  List.iteri
    (fun i path ->
      let bc =
        connect_exn
          (Printf.sprintf "backend %d" i)
          (Client.connect_unix ~path)
      in
      ignore (ok_exn bc "SHUTDOWN");
      Client.close bc)
    paths;
  Domain.join dom1';
  Domain.join dom2;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

(* SYNC under a WAL rolls the log over: the response carries a fresh
   epoch each time, and the shipped text is a loadable snapshot, byte for
   byte the new checkpoint. SNAPSHOT under a WAL writes the same bytes to
   its path and to its checkpoint. *)
let test_sync_checkpoints_wal () =
  let dir = Filename.temp_file "merge-wal" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let wcfg = Server.Wal.default_config ~dir in
  let r =
    match Server.Wal.recover ~store_cfg:(cfg ()) wcfg with
    | Ok r -> r
    | Error m -> Alcotest.failf "wal recover: %s" m
  in
  let daemon =
    Daemon.start (Engine.create ~wal:r.Server.Wal.wal r.Server.Wal.store)
  in
  let c =
    connect_exn "daemon" (Client.connect_tcp ~port:(Daemon.port daemon) ())
  in
  ignore (ok_exn c (create_line "a"));
  ignore (ok_exn c "INGEST a 7 1.5");
  let sync () =
    match Client.request_lines c "SYNC" with
    | Ok (header, lines) ->
        if not (P.json_ok header) then
          Alcotest.failf "SYNC answered %s" header;
        let epoch =
          match
            Option.bind (P.json_field "epoch" header) int_of_string_opt
          with
          | Some e -> e
          | None -> Alcotest.failf "SYNC under a WAL must report an epoch"
        in
        (epoch, String.concat "\n" lines ^ "\n")
    | Error m -> Alcotest.failf "SYNC: %s" m
  in
  let checkpoint e =
    match
      Server.Durable.read_file
        (Filename.concat dir (Printf.sprintf "checkpoint-%06d.snap" e))
    with
    | Ok s -> s
    | Error m -> Alcotest.failf "checkpoint %d: %s" e m
  in
  let e1, shipped = sync () in
  Alcotest.(check string) "SYNC payload = its checkpoint" (checkpoint e1)
    shipped;
  ignore (ok_exn c "INGEST a 9 2.5");
  let e2, shipped2 = sync () in
  Alcotest.(check bool) "each SYNC rolls a fresh epoch" true (e2 > e1);
  Alcotest.(check string) "second SYNC payload = its checkpoint"
    (checkpoint e2) shipped2;
  ignore (ok_exn c "INGEST a 11 0.5");
  let snap = Filename.concat dir "manual.snap" in
  let e3 =
    match
      Option.bind
        (P.json_field "epoch" (ok_exn c ("SNAPSHOT " ^ snap)))
        int_of_string_opt
    with
    | Some e -> e
    | None -> Alcotest.fail "SNAPSHOT under a WAL must report an epoch"
  in
  Alcotest.(check bool) "SNAPSHOT rolls a fresh epoch" true (e3 > e2);
  (match Server.Durable.read_file snap with
  | Ok s ->
      Alcotest.(check string) "SNAPSHOT file = its checkpoint" (checkpoint e3) s
  | Error m -> Alcotest.failf "SNAPSHOT file: %s" m);
  (match Snapshot.of_string_r shipped with
  | Ok st ->
      Alcotest.(check int) "shipped checkpoint holds the instance" 1
        (List.length (Store.instances st))
  | Error e ->
      Alcotest.failf "shipped checkpoint unusable: %s"
        (Sampling.Io.parse_error_to_string e));
  ignore (ok_exn c "SHUTDOWN");
  Client.close c;
  Daemon.join daemon;
  Server.Wal.close r.Server.Wal.wal

let () =
  Alcotest.run "merge"
    [
      ( "payload",
        [
          Alcotest.test_case "round trip" `Quick test_payload_roundtrip;
          Alcotest.test_case "strict parser guards" `Quick
            test_of_lines_guards;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "empty identity" `Quick test_merge_empty_identity;
          Alcotest.test_case "commutative" `Quick test_merge_commutative;
          Alcotest.test_case "associative" `Quick test_merge_associative;
          Alcotest.test_case "config mismatch rejected" `Quick
            test_merge_rejects_mismatch;
          Alcotest.test_case "overlap merge equals union ingest" `Quick
            test_merge_equals_union_overlap;
          Alcotest.test_case "1/2/4 partitions equal single node" `Slow
            test_partitions_equal_single_node;
          Alcotest.test_case
            "similarity over 1/2/4 partitions equals single node, survives \
             restart"
            `Slow test_partitions_equal_single_node_similarity;
          Alcotest.test_case "exports independent of ingest order" `Quick
            test_order_independent_exports;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "2/4-daemon cluster bit-identical" `Slow
            test_e2e_cluster_bit_identical;
          Alcotest.test_case
            "shared-seed cluster serves similarity bit-identical" `Slow
            test_e2e_cluster_similarity_bit_identical;
          Alcotest.test_case "failover from shipped checkpoint" `Slow
            test_e2e_failover_checkpoint;
          Alcotest.test_case "sync checkpoints the wal" `Quick
            test_sync_checkpoints_wal;
        ] );
    ]
