(* Durability & overload tests: the CRC'd writer, WAL frames, recovery
   (checkpoint + delta, torn tails, corrupt-checkpoint fallback), the
   crash-recovery property suite driven by injected I/O faults,
   admission control / shedding, client retry, and daemon hardening. *)

module F = Numerics.Faultify
module P = Server.Protocol
module Store = Server.Store
module Engine = Server.Engine
module Snapshot = Server.Snapshot
module Wal = Server.Wal
module Durable = Server.Durable
module Daemon = Server.Daemon
module Client = Server.Client

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let with_dir prefix f =
  let dir = fresh_dir prefix in
  Fun.protect ~finally:(fun () -> F.disarm_io (); rm_rf dir) (fun () -> f dir)

let get = function Ok v -> v | Error m -> Alcotest.failf "unexpected error: %s" m

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
  find 0

(* ------------------------------------------------------------------ *)
(* Durable                                                             *)
(* ------------------------------------------------------------------ *)

let test_crc32 () =
  (* The IEEE 802.3 check value. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Durable.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Durable.crc32 "");
  let s = "the quick brown fox jumps over the lazy dog" in
  let split =
    Durable.crc32_update (Durable.crc32_update 0l s 0 17) s 17
      (String.length s - 17)
  in
  Alcotest.(check int32) "streaming equals one-shot" (Durable.crc32 s) split

let test_atomic_write () =
  with_dir "durable" @@ fun dir ->
  let path = Filename.concat dir "f" in
  get (Durable.write_file_atomic ~site:"t" ~path "first\n");
  Alcotest.(check string) "roundtrip" "first\n" (get (Durable.read_file path));
  get (Durable.write_file_atomic ~site:"t" ~path "second\n");
  Alcotest.(check string) "replaced" "second\n" (get (Durable.read_file path));
  (* A torn write mid-replace must leave the previous file untouched. *)
  F.arm_io ~rate:1.0 ~kinds:[ F.Io_torn_write ] ~seed:3 ();
  (match Durable.write_file_atomic ~site:"t" ~path "third--longer\n" with
  | exception F.Crash _ -> ()
  | Ok () -> Alcotest.fail "expected an injected crash"
  | Error m -> Alcotest.failf "expected a crash, got error %s" m);
  F.disarm_io ();
  Alcotest.(check bool) "fault fired" true (F.io_injection_count () >= 1);
  Alcotest.(check string) "previous file intact" "second\n"
    (get (Durable.read_file path))

let test_short_write_restores_tail () =
  with_dir "durable" @@ fun dir ->
  let path = Filename.concat dir "log" in
  let w = get (Durable.openw ~path) in
  get (Durable.append ~site:"t" w "good-record|");
  F.arm_io ~rate:1.0 ~kinds:[ F.Io_short_write ] ~seed:5 ();
  (match Durable.append ~site:"t" w "doomed-record|" with
  | Ok () -> Alcotest.fail "expected the injected short write"
  | Error _ -> ());
  F.disarm_io ();
  (* The prefix the short write put on disk was truncated away. *)
  Alcotest.(check int) "offset unchanged" 12 (Durable.offset w);
  get (Durable.append ~site:"t" w "next-record|");
  Durable.close w;
  Alcotest.(check string) "file is consistent" "good-record|next-record|"
    (get (Durable.read_file path))

(* ------------------------------------------------------------------ *)
(* Frames                                                              *)
(* ------------------------------------------------------------------ *)

let sample_ops =
  [
    Wal.Create { name = "a-1.x"; tau = 0x1.9p6; k = 32; p = 0.2 };
    Wal.Ingest { name = "a-1.x"; key = 17; weight = 3.5 };
    Wal.Ingest { name = "b"; key = 0; weight = 0x1.fffp-3 };
    Wal.Ingest_batch
      { name = "b"; records = [| (3, 1.5); (17, 0x1.23p-4); (3, 0.25) |] };
    Wal.Flush;
  ]

let test_frame_roundtrip () =
  let buf = String.concat "" (List.map Wal.encode_frame sample_ops) in
  let rec decode pos acc =
    match Wal.decode_at buf pos with
    | Wal.End -> List.rev acc
    | Wal.Frame (op, next) -> decode next (op :: acc)
    | Wal.Torn m -> Alcotest.failf "unexpected torn frame: %s" m
  in
  let ops = decode 0 [] in
  Alcotest.(check bool) "all ops decode to themselves" true (ops = sample_ops)

let test_frame_torn_detection () =
  let frame = Wal.encode_frame (List.nth sample_ops 1) in
  (* Any strict prefix is torn, never a bogus decode. *)
  for cut = 1 to String.length frame - 1 do
    match Wal.decode_at (String.sub frame 0 cut) 0 with
    | Wal.Torn _ -> ()
    | Wal.End -> Alcotest.failf "prefix of %d bytes decoded as End" cut
    | Wal.Frame _ -> Alcotest.failf "prefix of %d bytes decoded as a frame" cut
  done;
  (* A flipped payload bit is a CRC mismatch. *)
  let corrupt =
    String.mapi
      (fun i c -> if i = 10 then Char.chr (Char.code c lxor 1) else c)
      frame
  in
  (match Wal.decode_at corrupt 0 with
  | Wal.Torn m ->
      Alcotest.(check bool) "CRC diagnostic" true (contains "CRC" m)
  | _ -> Alcotest.fail "bit flip not detected");
  Alcotest.(check bool) "empty is End" true (Wal.decode_at "" 0 = Wal.End)

let test_batch_frame_capacity () =
  (* The group-commit invariant rests on one batch = one frame, so the
     worst-case INGESTN batch — [Protocol.max_batch] records, each with
     the widest possible key and weight tokens — must fit under the
     decoder's payload cap, or a legal batch would be unrecoverable. *)
  let records = Array.make P.max_batch (max_int, Float.max_float) in
  let op = Wal.Ingest_batch { name = String.make 256 'n'; records } in
  let frame = Wal.encode_frame op in
  Alcotest.(check bool)
    (Printf.sprintf "worst-case batch payload (%d bytes) fits max_payload (%d)"
       (String.length frame - 8) Wal.max_payload)
    true
    (String.length frame - 8 <= Wal.max_payload);
  match Wal.decode_at frame 0 with
  | Wal.Frame (op', next) ->
      Alcotest.(check bool) "roundtrips bit-exactly" true (op' = op);
      Alcotest.(check int) "whole frame consumed" (String.length frame) next
  | Wal.Torn m -> Alcotest.failf "worst-case batch frame torn: %s" m
  | Wal.End -> Alcotest.fail "worst-case batch frame decoded as End"

(* ------------------------------------------------------------------ *)
(* The scripted workload shared by the WAL / crash tests               *)
(* ------------------------------------------------------------------ *)

let cfg = { Store.default_config with master = 11 }

let script : Wal.op list =
  let rng = Numerics.Prng.create ~seed:7 () in
  let ingests =
    List.init 48 (fun i ->
        let name = if i mod 2 = 0 then "a" else "b" in
        let key = Numerics.Prng.int rng 24 in
        let weight = 0.5 +. (Numerics.Prng.float rng *. 9.5) in
        Wal.Ingest { name; key; weight })
  in
  let rec splice i = function
    | [] -> []
    | op :: rest -> if i = 24 then op :: Wal.Flush :: rest else op :: splice (i + 1) rest
  in
  Wal.Create { name = "a"; tau = 60.; k = 32; p = 0.2 }
  :: Wal.Create { name = "b"; tau = 60.; k = 32; p = 0.2 }
  :: splice 1 ingests

let n_script = List.length script

let req_of_op = function
  | Wal.Create { name; tau; k; p } ->
      P.Create { name; tau = Some tau; k = Some k; p = Some p }
  | Wal.Ingest { name; key; weight } -> P.Ingest { name; key; weight }
  | Wal.Ingest_batch _ ->
      invalid_arg "req_of_op: batch ops execute via Engine.handle_ingest_many"
  | Wal.Flush -> P.Flush

let take n l = List.filteri (fun i _ -> i < n) l

(* Uninterrupted reference: the first [m] script ops applied straight to
   a store, no WAL. *)
let reference_store m =
  let st = Store.create cfg in
  List.iter
    (fun op ->
      match op with
      | Wal.Create { name; tau; k; p } ->
          ignore (get (Store.create_instance st ~name ~tau ~k ~p ()))
      | Wal.Ingest { name; key; weight } -> (
          match Store.ingest st ~name ~key ~weight with
          | Ok () -> ()
          | Error e -> Alcotest.failf "ref ingest: %s" (Store.ingest_error_to_string e))
      | Wal.Ingest_batch { name; records } ->
          (* Reference semantics of a batch: its records, in order. *)
          Array.iter
            (fun (key, weight) ->
              match Store.ingest st ~name ~key ~weight with
              | Ok () -> ()
              | Error e ->
                  Alcotest.failf "ref ingest: %s"
                    (Store.ingest_error_to_string e))
            records
      | Wal.Flush -> Store.flush st)
    (take m script);
  Store.flush st;
  st

let answers st =
  let e = Engine.create st in
  List.map
    (fun kind ->
      match Engine.query e kind [ "a"; "b" ] with
      | Ok r -> r
      | Error m -> Alcotest.failf "query: %s" m)
    [ P.Max; P.Or; P.Distinct; P.Dominance ]

let weights_of st name =
  let acc = ref [] in
  Sampling.Instance.iter
    (fun k v -> acc := (k, v) :: !acc)
    (Store.to_instance (Option.get (Store.find st name)));
  List.sort compare !acc

(* Bit-identical state and answers vs. the uninterrupted prefix run. *)
let check_equals_reference ~msg recovered m =
  let ref_st = reference_store m in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: weights of %s bit-identical to prefix %d" msg name m)
        true
        (weights_of recovered name = weights_of ref_st name))
    [ "a"; "b" ];
  List.iter2
    (fun expected actual ->
      Alcotest.(check string) (msg ^ ": query response bit-identical") expected
        actual)
    (answers ref_st) (answers recovered)

let wal_cfg ?(fsync = Wal.Always) ?(segment_bytes = 1 lsl 22) dir =
  { Wal.dir; fsync; segment_bytes }

let run_ops engine ops =
  List.iter
    (fun op ->
      let resp =
        match op with
        | Wal.Ingest_batch { name; records } ->
            Engine.handle_ingest_many engine ~name records
        | op -> fst (Engine.handle_request engine (req_of_op op))
      in
      if not (P.json_ok resp) then Alcotest.failf "op rejected: %s" resp)
    ops

(* ------------------------------------------------------------------ *)
(* WAL basics                                                          *)
(* ------------------------------------------------------------------ *)

let test_wal_cold_start_and_replay () =
  with_dir "wal" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check bool) "cold start" true (r.Wal.checkpoint_epoch = None);
  Alcotest.(check int) "nothing replayed" 0 r.Wal.replayed;
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine script;
  Wal.close r.Wal.wal;
  (* Restart: everything comes back from the log alone. *)
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check int) "all ops replayed" n_script r2.Wal.replayed;
  Alcotest.(check int) "no torn tail" 0 r2.Wal.truncated_bytes;
  check_equals_reference ~msg:"full replay" r2.Wal.store n_script;
  Wal.close r2.Wal.wal

let test_wal_segment_rotation () =
  with_dir "wal" @@ fun dir ->
  (* Tiny segments force many rotations. *)
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg ~segment_bytes:256 dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine script;
  Wal.close r.Wal.wal;
  let segments =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".log")
  in
  Alcotest.(check bool)
    (Printf.sprintf "rotated into several segments (%d)" (List.length segments))
    true
    (List.length segments > 3);
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg ~segment_bytes:256 dir)) in
  Alcotest.(check int) "all ops replayed across segments" n_script
    r2.Wal.replayed;
  check_equals_reference ~msg:"rotated replay" r2.Wal.store n_script;
  Wal.close r2.Wal.wal

let test_wal_checkpoint () =
  with_dir "wal" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  let mid = 30 in
  run_ops engine (take mid script);
  Alcotest.(check int) "first checkpoint epoch" 1
    (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= mid) script);
  Wal.close r.Wal.wal;
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check bool) "recovered on checkpoint" true
    (r2.Wal.checkpoint_epoch = Some 1);
  Alcotest.(check int) "only the delta replayed" (n_script - mid) r2.Wal.replayed;
  check_equals_reference ~msg:"checkpoint + delta" r2.Wal.store n_script;
  (* A second checkpoint prunes the pre-fallback generation. *)
  Alcotest.(check int) "second checkpoint epoch" 2
    (get (Wal.checkpoint r2.Wal.wal r2.Wal.store));
  let files = Array.to_list (Sys.readdir dir) in
  Alcotest.(check bool) "checkpoint 1 kept as fallback" true
    (List.mem "checkpoint-000001.snap" files);
  Alcotest.(check bool) "epoch-0 segments pruned" true
    (not (List.exists (fun n -> contains "wal-000000-" n) files));
  Wal.close r2.Wal.wal

(* The restore law on STATS: a store recovered from a checkpoint plus its
   delta answers STATS byte for byte as the uninterrupted run does —
   records, volume and the per-shard applied counters included. *)
let test_wal_checkpoint_stats_identical () =
  List.iter
    (fun shards ->
      with_dir "wal" @@ fun dir ->
      let pool = Numerics.Pool.create ~domains:shards () in
      Fun.protect ~finally:(fun () -> Numerics.Pool.shutdown pool) @@ fun () ->
      let store_cfg = { cfg with shards } in
      let stats st = fst (Engine.handle_request (Engine.create st) P.Stats) in
      let r = get (Wal.recover ~pool ~store_cfg (wal_cfg dir)) in
      let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
      let mid = 30 in
      run_ops engine (take mid script);
      ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
      run_ops engine (List.filteri (fun i _ -> i >= mid) script);
      let uninterrupted = stats r.Wal.store in
      Wal.close r.Wal.wal;
      let r2 = get (Wal.recover ~pool ~store_cfg (wal_cfg dir)) in
      Alcotest.(check bool) "recovered on the checkpoint" true
        (r2.Wal.checkpoint_epoch = Some 1);
      Alcotest.(check string)
        (Printf.sprintf "STATS byte-identical at %d shard(s)" shards)
        uninterrupted (stats r2.Wal.store);
      Wal.close r2.Wal.wal)
    [ 1; 2 ]

let test_wal_torn_tail_tolerated () =
  with_dir "wal" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine script;
  let segment = Wal.segment r.Wal.wal in
  Wal.close r.Wal.wal;
  (* Hand-tear the tail: half of one more frame, as a crash would. *)
  let frame = Wal.encode_frame (Wal.Ingest { name = "a"; key = 9; weight = 2. }) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 segment in
  output_string oc (String.sub frame 0 (String.length frame / 2));
  close_out oc;
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check bool) "torn bytes reported" true (r2.Wal.truncated_bytes > 0);
  Alcotest.(check int) "complete frames all replayed" n_script r2.Wal.replayed;
  check_equals_reference ~msg:"torn tail dropped" r2.Wal.store n_script;
  Wal.close r2.Wal.wal;
  (* The tear was physically truncated: a third recovery sees none. *)
  let r3 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check int) "tail gone after truncation" 0 r3.Wal.truncated_bytes;
  Wal.close r3.Wal.wal

let test_wal_corrupt_checkpoint_fallback () =
  with_dir "wal" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine (take 20 script);
  ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= 20 && i < 40) script);
  ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= 40) script);
  Wal.close r.Wal.wal;
  (* Flip one byte in the newest checkpoint. *)
  let victim = Filename.concat dir "checkpoint-000002.snap" in
  let s = get (Durable.read_file victim) in
  let pos = String.index s '\n' + 1 in
  let s' = String.mapi (fun i c -> if i = pos then 'z' else c) s in
  let oc = open_out_bin victim in
  output_string oc s';
  close_out oc;
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check bool) "fell back one generation" true
    (r2.Wal.checkpoint_epoch = Some 1);
  Alcotest.(check int) "one checkpoint quarantined" 1
    (List.length r2.Wal.skipped_checkpoints);
  Alcotest.(check bool) "quarantine file exists" true
    (Sys.file_exists (victim ^ ".corrupt"));
  (* Both epochs' deltas replayed on top of the older checkpoint. *)
  Alcotest.(check int) "replayed both generations" (n_script - 20) r2.Wal.replayed;
  check_equals_reference ~msg:"checkpoint fallback" r2.Wal.store n_script;
  Wal.close r2.Wal.wal

(* A checkpoint in another snapshot format is not damage: recovery
   refuses to start and leaves every file as it was, on every try, rather
   than quarantining the checkpoints and starting from what is left. *)
let test_wal_foreign_checkpoint_refused () =
  with_dir "wal" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine (take 20 script);
  ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= 20 && i < 40) script);
  ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= 40) script);
  Wal.close r.Wal.wal;
  let listing () = List.sort compare (Array.to_list (Sys.readdir dir)) in
  let snaps =
    List.filter (fun n -> Filename.check_suffix n ".snap") (listing ())
  in
  Alcotest.(check int) "two generations kept" 2 (List.length snaps);
  (* Stamp both generations with a format-1 header. *)
  let digit = String.length "optsample-snapshot " in
  List.iter
    (fun n ->
      let path = Filename.concat dir n in
      let s = get (Durable.read_file path) in
      Alcotest.(check bool) "format-2 header" true
        (String.sub s 0 (String.length Snapshot.magic) = Snapshot.magic);
      let oc = open_out_bin path in
      output_string oc (String.mapi (fun i c -> if i = digit then '1' else c) s);
      close_out oc)
    snaps;
  let contents () =
    List.map (fun n -> (n, get (Durable.read_file (Filename.concat dir n)))) (listing ())
  in
  let before = contents () in
  let refused msg =
    match Wal.recover ~store_cfg:cfg (wal_cfg dir) with
    | Ok r ->
        Wal.close r.Wal.wal;
        Alcotest.failf "%s: recovered over format-1 checkpoints" msg
    | Error m ->
        Alcotest.(check bool) (msg ^ ": names the format") true
          (contains "unsupported snapshot format" m);
        Alcotest.(check bool) (msg ^ ": directory untouched") true
          (contents () = before)
  in
  refused "first start";
  refused "second start";
  (* With the checkpoints removed by hand, the segments left start after
     epoch 0: recovery refuses rather than replaying only the tail. *)
  List.iter (fun n -> Sys.remove (Filename.concat dir n)) snaps;
  match Wal.recover ~store_cfg:cfg (wal_cfg dir) with
  | Ok r ->
      Wal.close r.Wal.wal;
      Alcotest.fail "recovered from segments that miss epoch 0"
  | Error m ->
      Alcotest.(check bool) "names the missing history" true
        (contains "history before is missing" m)

(* A checkpoint that cannot be read (here a directory where the newest
   checkpoint file should be) is not known to be damaged: recovery stops
   with an error naming it and leaves the directory as it is, on every
   try, instead of quarantining it and falling back a generation. *)
let test_wal_unreadable_checkpoint_kept () =
  with_dir "wal" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine (take 20 script);
  ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= 20 && i < 40) script);
  ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store));
  run_ops engine (List.filteri (fun i _ -> i >= 40) script);
  Wal.close r.Wal.wal;
  let victim = Filename.concat dir "checkpoint-000002.snap" in
  Sys.remove victim;
  Sys.mkdir victim 0o755;
  let contents () =
    List.map
      (fun n ->
        let path = Filename.concat dir n in
        if Sys.is_directory path then (n, "<directory>")
        else (n, get (Durable.read_file path)))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  let before = contents () in
  let refused msg =
    match Wal.recover ~store_cfg:cfg (wal_cfg dir) with
    | Ok r ->
        Wal.close r.Wal.wal;
        Alcotest.failf "%s: recovered past an unreadable checkpoint" msg
    | Error m ->
        Alcotest.(check bool) (msg ^ ": names the file") true
          (contains victim m);
        Alcotest.(check bool) (msg ^ ": directory untouched") true
          (contents () = before)
  in
  refused "first start";
  refused "second start"

(* ------------------------------------------------------------------ *)
(* Crash-recovery property suite                                       *)
(* ------------------------------------------------------------------ *)

(* Kill the WAL-backed engine at 1-based op [at] by arming exactly one
   injected fault kind, restart from disk, and require state and query
   answers bit-identical to an uninterrupted run over the surviving
   prefix ([at - 1] for a torn write — the frame never completed — and
   [at] for an fsync failure at fsync=always — the frame is complete,
   durability merely unconfirmed). [ckpt], when set, checkpoints after
   that many ops first. *)
let crash_at ?ckpt ~at ~kind ~survives msg () =
  with_dir "crash" @@ fun dir ->
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  let crashed = ref false in
  List.iteri
    (fun i op ->
      let n = i + 1 in
      if not !crashed then
        if n = at then begin
          F.arm_io ~rate:1.0 ~kinds:[ kind ] ~seed:13 ();
          (match Engine.handle_request engine (req_of_op op) with
          | exception F.Crash _ -> crashed := true
          | resp, _ ->
              Alcotest.failf "%s: expected a crash at op %d, got %s" msg at resp);
          F.disarm_io ()
        end
        else begin
          run_ops engine [ op ];
          match ckpt with
          | Some c when c = n -> ignore (get (Wal.checkpoint r.Wal.wal r.Wal.store))
          | _ -> ()
        end)
    script;
  Alcotest.(check bool) (msg ^ ": fault fired") true !crashed;
  Alcotest.(check bool) (msg ^ ": injection counted") true
    (F.io_injection_count () >= 1);
  (* The "process" died: abandon engine and store, recover from disk. *)
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  check_equals_reference ~msg r2.Wal.store survives;
  Wal.close r2.Wal.wal

let test_crash_torn_early = crash_at ~at:10 ~kind:F.Io_torn_write ~survives:9 "torn@10"
let test_crash_torn_last =
  crash_at ~at:n_script ~kind:F.Io_torn_write ~survives:(n_script - 1) "torn@last"

let test_crash_fsync_fail =
  (* fsync=always: the frame is on disk, so the op survives — the
     acknowledged prefix 1..24 certainly does (never silently dropped). *)
  crash_at ~at:25 ~kind:F.Io_fsync_fail ~survives:25 "fsync-fail@25"

let test_crash_torn_after_checkpoint =
  crash_at ~ckpt:30 ~at:40 ~kind:F.Io_torn_write ~survives:39 "torn@40 after ckpt@30"

let test_shed_then_killed () =
  (* A short write shears the op out of the log without killing the
     process; the op is answered as an error (not acknowledged) and a
     later crash + recovery lands exactly on the prefix before it. *)
  with_dir "crash" @@ fun dir ->
  let at = 15 in
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  List.iteri
    (fun i op ->
      let n = i + 1 in
      if n < at then run_ops engine [ op ]
      else if n = at then begin
        F.arm_io ~rate:1.0 ~kinds:[ F.Io_short_write ] ~seed:17 ();
        let resp, _ = Engine.handle_request engine (req_of_op op) in
        F.disarm_io ();
        Alcotest.(check bool) "short write answered as error" false
          (P.json_ok resp);
        Alcotest.(check (option string)) "wal error kind" (Some "wal")
          (P.json_field "kind" resp)
      end)
    script;
  (* Kill without closing; the unacknowledged op must not reappear. *)
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  check_equals_reference ~msg:"short-write@15" r2.Wal.store (at - 1);
  Wal.close r2.Wal.wal

let test_crash_during_checkpoint () =
  (* Tearing the checkpoint write itself must cost nothing: the rename
     never happened, recovery ignores the half-written tmp and replays
     the full log. *)
  with_dir "crash" @@ fun dir ->
  let mid = 30 in
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine (take mid script);
  F.arm_io ~rate:1.0 ~kinds:[ F.Io_torn_write ] ~seed:19 ();
  (match Wal.checkpoint r.Wal.wal r.Wal.store with
  | exception F.Crash _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a crash mid-checkpoint");
  F.disarm_io ();
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check bool) "no checkpoint survived" true
    (r2.Wal.checkpoint_epoch = None);
  Alcotest.(check bool) "tmp cleaned up" true
    (not
       (Array.exists
          (fun n -> Filename.check_suffix n ".tmp")
          (Sys.readdir dir)));
  check_equals_reference ~msg:"crash in checkpoint" r2.Wal.store mid;
  Wal.close r2.Wal.wal

let test_crash_torn_batch () =
  (* Group commit's crash contract: a batched frame torn mid-write is
     dropped {e atomically} on recovery — none of its records survive,
     not a prefix of them. *)
  with_dir "crash" @@ fun dir ->
  let mid = 20 in
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine (take mid script);
  (* Keys >= 100 never appear in the script, so any survivor from this
     batch would be unambiguous. *)
  let records = Array.init 16 (fun i -> (100 + i, 2.5 +. float_of_int i)) in
  F.arm_io ~rate:1.0 ~kinds:[ F.Io_torn_write ] ~seed:29 ();
  (match Engine.handle_ingest_many engine ~name:"a" records with
  | exception F.Crash _ -> ()
  | resp -> Alcotest.failf "expected a crash mid-batch, got %s" resp);
  F.disarm_io ();
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check int) "only the pre-batch prefix replayed" mid r2.Wal.replayed;
  Alcotest.(check bool) "torn batch frame truncated" true
    (r2.Wal.truncated_bytes > 0);
  let weights = weights_of r2.Wal.store "a" in
  Array.iter
    (fun (key, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "no partial record: key %d absent" key)
        true
        (not (List.mem_assoc key weights)))
    records;
  check_equals_reference ~msg:"torn batch dropped atomically" r2.Wal.store mid;
  Wal.close r2.Wal.wal

let test_wal_batch_replay_equals_singles () =
  (* The script's ingests regrouped as one INGESTN batch per instance:
     per-instance arrival order is unchanged, so recovery must land on
     bits identical to the single-op reference run. *)
  with_dir "wal" @@ fun dir ->
  let batch name =
    script
    |> List.filter_map (function
         | Wal.Ingest { name = n; key; weight } when n = name ->
             Some (key, weight)
         | _ -> None)
    |> Array.of_list
  in
  let r = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  let engine = Engine.create ~wal:r.Wal.wal r.Wal.store in
  run_ops engine
    [
      Wal.Create { name = "a"; tau = 60.; k = 32; p = 0.2 };
      Wal.Create { name = "b"; tau = 60.; k = 32; p = 0.2 };
      Wal.Ingest_batch { name = "a"; records = batch "a" };
      Wal.Ingest_batch { name = "b"; records = batch "b" };
    ];
  Wal.close r.Wal.wal;
  let r2 = get (Wal.recover ~store_cfg:cfg (wal_cfg dir)) in
  Alcotest.(check int) "two creates + two batch frames replayed" 4
    r2.Wal.replayed;
  check_equals_reference ~msg:"batched replay equals singles" r2.Wal.store
    n_script;
  Wal.close r2.Wal.wal

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

let test_shed_policy () =
  let st =
    Store.create
      { cfg with flush_every = max_int; max_inflight = 4 }
  in
  ignore (get (Store.create_instance st ~name:"a" ()));
  for key = 1 to 4 do
    match Store.ingest st ~name:"a" ~key ~weight:1. with
    | Ok () -> ()
    | Error e -> Alcotest.failf "ingest %d: %s" key (Store.ingest_error_to_string e)
  done;
  (match Store.ingest st ~name:"a" ~key:5 ~weight:1. with
  | Error (Store.Overloaded { depth; limit }) ->
      Alcotest.(check int) "depth at limit" 4 depth;
      Alcotest.(check int) "limit reported" 4 limit
  | Ok () -> Alcotest.fail "expected a shed"
  | Error e -> Alcotest.failf "wrong error: %s" (Store.ingest_error_to_string e));
  (* check_ingest agrees, with no side effect. *)
  (match Store.check_ingest st ~name:"a" ~weight:1. with
  | Error (Store.Overloaded _) -> ()
  | _ -> Alcotest.fail "check_ingest should shed too");
  (* The engine answers the structured error with a retry hint. *)
  let e = Engine.create st in
  let resp, _ =
    Engine.handle_request e (P.Ingest { name = "a"; key = 5; weight = 1. })
  in
  Alcotest.(check bool) "shed response not ok" false (P.json_ok resp);
  Alcotest.(check (option string)) "kind" (Some "overloaded")
    (P.json_field "kind" resp);
  (match P.json_float_field "retry_after_ms" resp with
  | Some ms -> Alcotest.(check bool) "positive hint" true (ms >= 1.)
  | None -> Alcotest.fail "retry_after_ms missing");
  (* Draining restores admission. *)
  Store.flush st;
  (match Store.ingest st ~name:"a" ~key:5 ~weight:1. with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-flush: %s" (Store.ingest_error_to_string e));
  Store.flush st;
  Alcotest.(check int) "all five records applied" 5
    (Store.cardinality (Option.get (Store.find st "a")))

(* ------------------------------------------------------------------ *)
(* Client retry                                                        *)
(* ------------------------------------------------------------------ *)

let test_backoff_schedule () =
  let retry = { Client.default_retry with base_delay_ms = 10; max_delay_ms = 500 } in
  let schedule seed =
    let rng = Numerics.Prng.create ~seed () in
    List.init 12 (fun attempt -> Client.backoff_ms rng retry ~attempt)
  in
  Alcotest.(check (list int)) "deterministic for a fixed seed" (schedule 5)
    (schedule 5);
  List.iteri
    (fun attempt d ->
      let cap = min 500 (10 * (1 lsl attempt)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [0, %d)" attempt cap)
        true
        (d >= 0 && d < cap))
    (schedule 5);
  Alcotest.(check bool) "seeds decorrelate" true (schedule 5 <> schedule 6)

let test_client_reconnect () =
  let st = Store.create cfg in
  let daemon = Daemon.start (Engine.create st) in
  let c =
    get (Client.connect_tcp ~port:(Daemon.port daemon) ())
  in
  Alcotest.(check bool) "create ok" true
    (P.json_ok (get (Client.request c "CREATE a tau=50 k=16 p=0.2")));
  ignore (get (Client.request c "QUIT"));
  (* The server closed the session: a plain request fails... *)
  (match Client.request c "STATS" with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "expected a dropped connection, got %s" r);
  (* ...and request_retry re-dials and succeeds. *)
  Alcotest.(check bool) "retry reconnects" true
    (P.json_ok (get (Client.request_retry ~sleep:(fun _ -> ()) c "STATS")));
  ignore (get (Client.request c "SHUTDOWN"));
  Client.close c;
  Daemon.join daemon

let test_retry_honors_overload () =
  (* A store that sheds on the very first record: every retry is shed
     too, and the recorded sleeps are exactly the server's hints. *)
  let st =
    Store.create { cfg with flush_every = max_int; max_inflight = 0 }
  in
  let daemon = Daemon.start (Engine.create st) in
  let c = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  Alcotest.(check bool) "create ok" true
    (P.json_ok (get (Client.request c "CREATE a tau=50 k=16 p=0.2")));
  let sleeps = ref [] in
  let retry = { Client.default_retry with attempts = 3 } in
  let resp =
    get
      (Client.request_retry ~retry
         ~sleep:(fun ms -> sleeps := ms :: !sleeps)
         c "INGEST a 1 2.5")
  in
  Alcotest.(check bool) "still shed after retries" false (P.json_ok resp);
  Alcotest.(check (option string)) "kind overloaded" (Some "overloaded")
    (P.json_field "kind" resp);
  Alcotest.(check int) "slept between attempts" (retry.Client.attempts - 1)
    (List.length !sleeps);
  let hint =
    int_of_float (Option.get (P.json_float_field "retry_after_ms" resp))
  in
  List.iter
    (fun ms -> Alcotest.(check int) "honored the server hint" hint ms)
    !sleeps;
  ignore (get (Client.request c "SHUTDOWN"));
  Client.close c;
  Daemon.join daemon

let test_batch_retry_whole () =
  (* A shed batch is retried {e whole}: admission checks the batch
     before anything is logged or queued, so a retry can never
     double-apply a half-landed prefix. *)
  let st = Store.create { cfg with flush_every = max_int; max_inflight = 8 } in
  let daemon = Daemon.start (Engine.create st) in
  let c = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  Alcotest.(check bool) "create ok" true
    (P.json_ok (get (Client.request c "CREATE a tau=50 k=16 p=0.2")));
  let sleeps = ref [] in
  let retry = { Client.default_retry with attempts = 3 } in
  let big = Array.init 9 (fun i -> (i + 1, 1.5)) in
  let resp =
    get
      (Client.ingest_many ~retry
         ~sleep:(fun ms -> sleeps := ms :: !sleeps)
         c ~name:"a" big)
  in
  Alcotest.(check (option string)) "whole batch shed" (Some "overloaded")
    (P.json_field "kind" resp);
  Alcotest.(check int) "slept between whole-batch retries"
    (retry.Client.attempts - 1)
    (List.length !sleeps);
  Alcotest.(check int) "never half-applied" 0 (Store.pending st);
  (* One record fewer fits the budget exactly — and lands whole. *)
  let fits = Array.init 8 (fun i -> (i + 1, 1.5)) in
  let resp = get (Client.ingest_many c ~name:"a" fits) in
  Alcotest.(check bool) "batch within budget lands" true (P.json_ok resp);
  Alcotest.(check (option string)) "ingested count" (Some "8")
    (P.json_field "ingested" resp);
  Alcotest.(check int) "all queued" 8 (Store.pending st);
  ignore (get (Client.request c "SHUTDOWN"));
  Client.close c;
  Daemon.join daemon

let test_batch_malformed_body () =
  (* A poisoned body line yields one error response for the whole batch
     while the remaining body lines are still consumed — the framing
     stays in sync and the session survives. *)
  let st = Store.create cfg in
  let daemon = Daemon.start (Engine.create st) in
  let c = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  Alcotest.(check bool) "create ok" true
    (P.json_ok (get (Client.request c "CREATE a tau=50 k=16 p=0.2")));
  let resp = get (Client.request c "INGESTN a 3\n1 2.5\nbogus line\n3 1.25") in
  Alcotest.(check bool) "poisoned batch rejected" false (P.json_ok resp);
  Alcotest.(check bool) "session still in sync" true
    (P.json_ok (get (Client.request c "STATS")));
  Store.flush st;
  Alcotest.(check int) "nothing applied" 0
    (Store.cardinality (Option.get (Store.find st "a")));
  (* A well-formed batch through the same session lands whole. *)
  let resp = get (Client.request c "INGESTN a 2\n7 1.5\n9 2.5") in
  Alcotest.(check bool) "batch ok" true (P.json_ok resp);
  Alcotest.(check (option string)) "ingested count" (Some "2")
    (P.json_field "ingested" resp);
  Store.flush st;
  Alcotest.(check int) "both records applied" 2
    (Store.cardinality (Option.get (Store.find st "a")));
  ignore (get (Client.request c "SHUTDOWN"));
  Client.close c;
  Daemon.join daemon

let test_conn_drop_injection () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = P.Conn.of_fd a and cb = P.Conn.of_fd b in
  F.arm_io ~rate:1.0 ~kinds:[ F.Io_drop ] ~seed:3 ();
  (match P.Conn.output_line ca "hello" with
  | () -> Alcotest.fail "expected the injected drop"
  | exception Sys_error _ -> ());
  F.disarm_io ();
  Alcotest.(check bool) "drop counted" true (F.io_injection_count () >= 1);
  Alcotest.(check bool) "peer sees EOF" true (P.Conn.input_line_opt cb = None);
  P.Conn.close cb

(* ------------------------------------------------------------------ *)
(* Daemon hardening                                                    *)
(* ------------------------------------------------------------------ *)

let test_listen_unix_guard () =
  let path = Filename.temp_file "optsample" ".sock" in
  (* The temp file is a REGULAR file: refusing to unlink it is the whole
     point. *)
  (match Daemon.listen_unix ~path () with
  | Error m ->
      Alcotest.(check bool) "diagnostic names the conflict" true
        (contains "not a socket" m)
  | Ok sock ->
      Unix.close sock;
      Alcotest.fail "listen_unix destroyed a regular file");
  Sys.remove path;
  (* A stale socket file is reclaimed. *)
  let sock = get (Daemon.listen_unix ~path ()) in
  Unix.close sock;
  Alcotest.(check bool) "socket file left behind" true (Sys.file_exists path);
  let sock2 = get (Daemon.listen_unix ~path ()) in
  Unix.close sock2;
  Sys.remove path

let test_line_too_long () =
  let st = Store.create cfg in
  let config = { Daemon.default_config with max_line_bytes = 64 } in
  let daemon = Daemon.start ~config (Engine.create st) in
  let c = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  let resp = get (Client.request c ("INGEST " ^ String.make 200 'a')) in
  Alcotest.(check bool) "rejected" false (P.json_ok resp);
  Alcotest.(check (option string)) "kind" (Some "line_too_long")
    (P.json_field "kind" resp);
  (* The session was closed: the daemon accepts a fresh connection. *)
  (match Client.request c "STATS" with
  | Error _ -> ()
  | Ok r -> Alcotest.failf "expected a closed session, got %s" r);
  let c2 = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  ignore (get (Client.request c2 "SHUTDOWN"));
  Client.close c;
  Client.close c2;
  Daemon.join daemon

let test_read_timeout () =
  let st = Store.create cfg in
  let config = { Daemon.default_config with read_timeout_s = 0.15 } in
  let daemon = Daemon.start ~config (Engine.create st) in
  let c = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  Unix.sleepf 0.5;
  (* The server timed the session out: either the structured timeout
     error is still in flight, or the connection is already gone. *)
  (match Client.request c "STATS" with
  | Ok resp ->
      Alcotest.(check bool) "not ok" false (P.json_ok resp);
      Alcotest.(check (option string)) "kind" (Some "timeout")
        (P.json_field "kind" resp)
  | Error _ -> ());
  let c2 = get (Client.connect_tcp ~port:(Daemon.port daemon) ()) in
  ignore (get (Client.request c2 "SHUTDOWN"));
  Client.close c;
  Client.close c2;
  Daemon.join daemon

(* ------------------------------------------------------------------ *)
(* Snapshot robustness (satellite)                                     *)
(* ------------------------------------------------------------------ *)

let test_snapshot_robustness () =
  with_dir "snap" @@ fun dir ->
  let st = reference_store n_script in
  let path = Filename.concat dir "s.snap" in
  ignore (get (Snapshot.write st ~path));
  let good = get (Durable.read_file path) in
  (* Truncated file: strict parser rejects. *)
  let tpath = Filename.concat dir "t.snap" in
  let oc = open_out_bin tpath in
  output_string oc (String.sub good 0 (String.length good / 2));
  close_out oc;
  (match Snapshot.load tpath with
  | Error e ->
      Alcotest.(check bool) "truncation diagnosed" true
        (String.length e.Sampling.Io.message > 0)
  | Ok _ -> Alcotest.fail "truncated snapshot accepted");
  (* Bit-flipped second line: rejected with that line's number. *)
  let pos = String.index good '\n' + 1 in
  let flipped = String.mapi (fun i c -> if i = pos then 'z' else c) good in
  let fpath = Filename.concat dir "f.snap" in
  let oc = open_out_bin fpath in
  output_string oc flipped;
  close_out oc;
  (match Snapshot.load fpath with
  | Error e -> Alcotest.(check int) "line-numbered diagnostic" 2 e.Sampling.Io.line
  | Ok _ -> Alcotest.fail "bit-flipped snapshot accepted");
  (* Mid-write crash: the previous snapshot at the path survives. *)
  F.arm_io ~rate:1.0 ~kinds:[ F.Io_torn_write ] ~seed:23 ();
  (match Snapshot.write st ~path with
  | exception F.Crash _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected a crash mid-write");
  F.disarm_io ();
  Alcotest.(check string) "previous snapshot intact" good
    (get (Durable.read_file path));
  match Snapshot.load path with
  | Ok st2 -> check_equals_reference ~msg:"reload after crashed rewrite" st2 n_script
  | Error e -> Alcotest.failf "reload: %s" e.Sampling.Io.message

let () =
  Alcotest.run "wal"
    [
      ( "durable",
        [
          Alcotest.test_case "crc32" `Quick test_crc32;
          Alcotest.test_case "atomic write survives torn replace" `Quick
            test_atomic_write;
          Alcotest.test_case "short write restores the tail" `Quick
            test_short_write_restores_tail;
        ] );
      ( "frames",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn and corrupt detection" `Quick
            test_frame_torn_detection;
          Alcotest.test_case "worst-case batch fits one frame" `Quick
            test_batch_frame_capacity;
        ] );
      ( "wal",
        [
          Alcotest.test_case "cold start and full replay" `Quick
            test_wal_cold_start_and_replay;
          Alcotest.test_case "segment rotation" `Quick test_wal_segment_rotation;
          Alcotest.test_case "checkpoint shortens replay and prunes" `Quick
            test_wal_checkpoint;
          Alcotest.test_case "checkpoint recovery keeps STATS byte-identical"
            `Quick test_wal_checkpoint_stats_identical;
          Alcotest.test_case "torn tail tolerated and truncated" `Quick
            test_wal_torn_tail_tolerated;
          Alcotest.test_case "corrupt checkpoint falls back a generation"
            `Quick test_wal_corrupt_checkpoint_fallback;
          Alcotest.test_case "foreign-format checkpoint refused, kept"
            `Quick test_wal_foreign_checkpoint_refused;
          Alcotest.test_case "unreadable checkpoint refused, kept" `Quick
            test_wal_unreadable_checkpoint_kept;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "torn write early" `Quick test_crash_torn_early;
          Alcotest.test_case "torn write on the last op" `Quick
            test_crash_torn_last;
          Alcotest.test_case "fsync failure keeps the acknowledged prefix"
            `Quick test_crash_fsync_fail;
          Alcotest.test_case "torn write after a checkpoint" `Quick
            test_crash_torn_after_checkpoint;
          Alcotest.test_case "short write sheds the op, then crash" `Quick
            test_shed_then_killed;
          Alcotest.test_case "crash during checkpoint write" `Quick
            test_crash_during_checkpoint;
          Alcotest.test_case "torn batched frame dropped atomically" `Quick
            test_crash_torn_batch;
          Alcotest.test_case "batched replay equals singles" `Quick
            test_wal_batch_replay_equals_singles;
        ] );
      ( "admission",
        [ Alcotest.test_case "bounded mailboxes shed" `Quick test_shed_policy ] );
      ( "client",
        [
          Alcotest.test_case "backoff schedule" `Quick test_backoff_schedule;
          Alcotest.test_case "reconnect after drop" `Quick test_client_reconnect;
          Alcotest.test_case "retry honors overload hints" `Quick
            test_retry_honors_overload;
          Alcotest.test_case "shed batch retried whole" `Quick
            test_batch_retry_whole;
          Alcotest.test_case "malformed batch body keeps framing in sync"
            `Quick test_batch_malformed_body;
          Alcotest.test_case "injected connection drop" `Quick
            test_conn_drop_injection;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "listen_unix refuses non-sockets" `Quick
            test_listen_unix_guard;
          Alcotest.test_case "over-long lines rejected" `Quick test_line_too_long;
          Alcotest.test_case "read timeout" `Quick test_read_timeout;
        ] );
      ( "snapshot-robustness",
        [
          Alcotest.test_case "truncated, flipped, crashed writes" `Quick
            test_snapshot_robustness;
        ] );
    ]
