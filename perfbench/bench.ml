(* End-to-end benchmark of the optsample serving plane and offline
   pipeline, with a traced per-layer replay.

     bench.exe --workload ingest|query|offline --seed N
               --seconds S --trace 0|1

   The serving workloads run the built [optsample serve] binary (and,
   in the traced run, [optsample route]) as child processes and drive
   them closed-loop over one client connection (Unix-domain sockets
   under .bench_build/).
   Every run checks its answers against an in-process Store + Engine
   fed the same records. With [--trace 1] the run replays the same
   inputs in-process, timing the calls into each module from outside,
   and reports the per-layer metrics instead of the end-to-end ones.
   The last stdout line is the JSON result; see README.md for the
   workloads, the metrics and why each was chosen. *)

module P = Server.Protocol
module C = Server.Client
module St = Server.Store
module E = Server.Engine
module Pool = Numerics.Pool

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* An interrupted run still stops its servers: [exit] runs the at_exit
   clean-up below. *)
let () =
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigint; Sys.sigterm ]

(* ---------- clock and sample statistics ---------- *)

let now_ns = Numerics.Obs.now_ns
let ns_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0)
let ms_since t0 = ns_since t0 /. 1e6
let s_since t0 = ns_since t0 /. 1e9

(* Time [f ()] in nanoseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ns_since t0)

(* Growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s
end

(* Nearest-rank percentile at integer percent [p]: the smallest sample
   with at least p% of the samples at or below it. *)
let rank n p = max 1 (((p * n) + 99) / 100)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0. else sorted.(rank n p - 1)

(* Samples strictly beyond the p-th percentile. *)
let beyond n p = n - rank n p

let median_of xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a 50

(* ---------- result accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let op ok =
  incr attempted;
  if not ok then incr failed

let check what ok =
  op ok;
  if not ok then prerr_endline ("perfbench: mismatch: " ^ what)

(* Reported metrics: name -> (value, sample count, note). *)
let results : (string, float * int * string) Hashtbl.t = Hashtbl.create 64

let set ?(note = "") ~samples name value = Hashtbl.replace results name (value, samples, note)

let end_to_end = [ ("setup_s", "s"); ("mem.peak_mb", "MB"); ("op_ms", "ms") ]

let kinds =
  [ "max"; "or"; "distinct"; "dominance"; "jaccard"; "l1"; "union";
    "intersection" ]

(* The four similarity kinds share one Similarity.sums_flat walk, so
   their daemon-side medians are pooled. *)
let group = function
  | "jaccard" | "l1" | "union" | "intersection" -> "similarity"
  | k -> k

let groups = [ "max"; "or"; "distinct"; "dominance"; "similarity" ]
let caches = [ "server.or"; "server.or_table"; "exact.pps_r2"; "max_oblivious.coeffs" ]

let per_layer =
  [ ("protocol.parse.ns_per_record", "ns"); ("store.admit.ns_per_batch", "ns");
    ("store.publish.ns_per_batch", "ns"); ("store.apply.ns_per_record", "ns");
    ("store.apply.words_per_record", "words"); ("store.flush.calls", "count");
    ("wal.append.ns_per_batch", "ns"); ("wal.bytes_per_record", "B");
    ("engine.flush.ms_per_panel", "ms") ]
  @ List.map (fun k -> ("engine." ^ k ^ ".ms", "ms")) kinds
  @ List.map (fun k -> ("engine." ^ k ^ ".words", "words")) kinds
  @ [ ("engine.sampled_keys", "count") ]
  @ List.map (fun c -> ("memo.hit_ratio." ^ c, "ratio")) caches
  @ List.map (fun g -> ("q." ^ g ^ "_p50_ms", "ms")) groups
  @ [ ("router.query.ms_per_query", "ms"); ("router.pull.ms_per_query", "ms");
      ("router.pull.lines_per_query", "count");
      ("router.pull.bytes_per_query", "B"); ("merge.parse.ms_per_query", "ms");
      ("merge.merge.ms_per_query", "ms"); ("merge.materialize.ms_per_query", "ms");
      ("mc.draw.ns_per_trial", "ns"); ("mc.estimate.ns_per_trial", "ns");
      ("mc.words_per_trial", "words"); ("fig4.ms_per_panel", "ms");
      ("pool.speedup", "ratio"); ("gc.minor_collections_per_job", "count");
      ("residual.share", "ratio") ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Print every metric of the run's list (human lines, then the JSON
   result as the last line) and exit: 0 when every check passed. *)
let finish ~workload ~trace =
  let spec = if trace then per_layer else end_to_end in
  Hashtbl.iter
    (fun name _ ->
      if not (List.mem_assoc name spec) then
        failwith ("perfbench: metric outside the declared list: " ^ name))
    results;
  let correct = !failed = 0 in
  Printf.printf "workload %s trace %d: attempted %d failed %d fail_ratio %.6g\n" workload
    (if trace then 1 else 0)
    !attempted !failed
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  let fields =
    List.map
      (fun (name, unit) ->
        let value, samples, note =
          match Hashtbl.find_opt results name with
          | Some r -> r
          | None -> (0., 0, "layer not on this workload's path")
        in
        Printf.printf "  %-34s %16s %-6s samples=%d%s\n" name (json_number value) unit
          samples
          (if note = "" then "" else "  (" ^ note ^ ")");
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit)
      spec
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed (String.concat ", " fields);
  exit (if correct then 0 else 1)

(* ---------- host calibration ---------- *)

(* A fixed register-only xorshift loop: no allocation, no memory
   traffic. Printed with every run as a host diagnostic — it shows when
   the host itself is slow. It is not a metric: no program change can
   move it, and it never normalises another metric. *)
let calib_once () =
  let t0 = now_ns () in
  let x = ref 0x2545F491 in
  for _ = 1 to 10_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  ms_since t0

let host_calib () =
  let xs = List.init 5 (fun _ -> calib_once ()) in
  Printf.printf "host.calib_ms %.4f ms (median of 5; diagnostic)\n" (median_of xs)

(* ---------- child processes ---------- *)

let work_dir = Printf.sprintf ".bench_build/pb%d" (Unix.getpid ())
let optsample = "_build/default/bin/optsample.exe"
let children : int list ref = ref []

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let reap pid =
  let deadline = Int64.add (now_ns ()) 10_000_000_000L in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now_ns () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  children := List.filter (fun p -> p <> pid) !children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children;
      children := [];
      rm_rf work_dir)

type server = { pid : int; sock : string }

let spawn name args =
  let sock = Filename.concat work_dir (name ^ ".sock") in
  let log =
    Unix.openfile
      (Filename.concat work_dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list ((optsample :: args) @ [ "--socket"; sock ]) in
  let pid = Unix.create_process optsample argv null log log in
  Unix.close log;
  Unix.close null;
  children := pid :: !children;
  { pid; sock }

(* Poll until the server accepts and greets. The step is fine (0.2 ms)
   against a set-up of a few milliseconds, so it adds little to setup_s
   and little jitter. *)
let connect srv =
  let deadline = Int64.add (now_ns ()) 30_000_000_000L in
  let rec go () =
    match C.connect_unix ~path:srv.sock with
    | Ok c -> c
    | Error m ->
        (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
        | 0, _ -> ()
        | _ -> failwith ("server exited during start-up: " ^ m));
        if now_ns () > deadline then failwith ("server never became ready: " ^ m);
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let request conn line =
  match C.request conn line with
  | Ok r -> r
  | Error m -> failwith (Printf.sprintf "transport error on %S: %s" (String.sub line 0 (min 40 (String.length line))) m)

(* One request, checked for an ok response, counted as an operation. *)
let expect_ok conn line =
  let r = request conn line in
  check (Printf.sprintf "error response to %S: %s" (String.sub line 0 (min 40 (String.length line))) r) (P.json_ok r);
  r

let stop srv =
  (match C.connect_unix ~path:srv.sock with
  | Ok c ->
      ignore (C.request c "SHUTDOWN");
      C.close c
  | Error _ -> ());
  reap srv.pid

let vmhwm_mb who =
  let ic = open_in (Printf.sprintf "/proc/%s/status" who) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ---------- inputs ---------- *)

type recs = { keys : int array; ws : float array }

let length r = Array.length r.keys
let slice r lo hi = Array.init (hi - lo) (fun i -> (r.keys.(lo + i), r.ws.(lo + i)))

(* Traffic parameters of the workload seed, scaled in key count and
   volume together (so the per-key weight profile is unchanged). *)
let traffic ~seed ~scale =
  let d = Workload.Traffic.default in
  let sc n = int_of_float (Float.round (float_of_int n *. scale)) in
  {
    d with
    Workload.Traffic.n_shared = sc d.Workload.Traffic.n_shared;
    n_only = sc d.Workload.Traffic.n_only;
    total_per_hour = d.Workload.Traffic.total_per_hour *. scale;
    seed;
  }

(* One hour aggregated: every key once, with its hourly volume. *)
let aggregated p ~hour =
  let s = Workload.Traffic.Stream.create ~hour p in
  let n = Workload.Traffic.Stream.length s in
  let keys = Array.make n 0 and ws = Array.make n 0. in
  for i = 0 to n - 1 do
    let k, w = Workload.Traffic.Stream.next s in
    keys.(i) <- k;
    ws.(i) <- w
  done;
  { keys; ws }

(* One hour as a flow log: every key's volume split into unit flows
   (the fractional remainder as a last, smaller flow), then shuffled. *)
let flows p ~hour ~rng =
  let agg = aggregated p ~hour in
  let count w = if w <= 1. then 1 else int_of_float (Float.ceil w) in
  let n = Array.fold_left (fun acc w -> acc + count w) 0 agg.ws in
  let keys = Array.make n 0 and ws = Array.make n 0. in
  let j = ref 0 in
  Array.iteri
    (fun i w ->
      let c = count w in
      for f = 1 to c do
        keys.(!j) <- agg.keys.(i);
        ws.(!j) <- (if f < c then 1. else w -. float_of_int (c - 1));
        incr j
      done)
    agg.ws;
  let perm = Array.init n Fun.id in
  Numerics.Prng.shuffle rng perm;
  { keys = Array.map (fun i -> keys.(i)) perm; ws = Array.map (fun i -> ws.(i)) perm }

type batch = { inst : int; recs : (int * float) array }

(* Fixed-size batches, round-robin over the streams. *)
let plan ~size streams =
  let nb = Array.map (fun r -> (length r + size - 1) / size) streams in
  let out = ref [] in
  for i = 0 to Array.fold_left max 0 nb - 1 do
    Array.iteri
      (fun s r ->
        if i < nb.(s) then
          let lo = i * size in
          out := { inst = s; recs = slice r lo (min (lo + size) (length r)) } :: !out)
      streams
  done;
  Array.of_list (List.rev !out)

let batch_records b = Array.length b.recs

(* What the daemon does with an INGESTN payload before the store sees
   it: Protocol.parse of the header, parse_batch_record per body line. *)
let parse_ingestn payload =
  let lines = Array.of_list (String.split_on_char '\n' payload) in
  match P.parse lines.(0) with
  | Ok (P.Ingest_many { name; count }) ->
      ( name,
        Array.init count (fun i ->
            match P.parse_batch_record ~line:(i + 1) lines.(i + 1) with
            | Ok r -> r
            | Error _ -> failwith "bad INGESTN body line") )
  | _ -> failwith "bad INGESTN header"

let create_line name = Printf.sprintf "CREATE %s tau=400 k=128 p=0.1" name
let query_line kind a b = Printf.sprintf "QUERY %s %s %s" kind a b

(* The in-process reference: the daemon's store configuration (serve
   defaults plus shared seeds) on an inline one-domain pool. *)
let store_cfg ~shards =
  { St.default_config with St.shards; mode = Sampling.Seeds.Shared; master = 42 }

let reference_store ?(shards = 1) names =
  let st = St.create ~pool:(Pool.create ~domains:1 ()) (store_cfg ~shards) in
  List.iter
    (fun name ->
      match St.create_instance st ~name ~tau:400. ~k:128 ~p:0.1 () with
      | Ok _ -> ()
      | Error m -> failwith m)
    names;
  st

let ingest_ref st ~name recs =
  match St.ingest_many st ~name ~records:recs with
  | Ok () -> ()
  | Error e -> failwith (St.ingest_error_to_string e)

let engine_answer st kind a b =
  match P.parse (query_line kind a b) with
  | Ok (P.Query { kind = k; names }) -> (
      match E.query (E.create st) k names with Ok r -> r | Error m -> failwith m)
  | _ -> failwith "unparseable query"

(* Minor-heap words allocated by [f ()] on this domain — the repo's
   allocation measure (test/allocheck.ml). Exact and repeatable, unlike
   major-heap counts, which move with GC timing; blocks too large for
   the minor heap are not counted. *)
let counted f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Sum of the "records" fields of a STATS response. *)
let stats_records resp =
  let key = "\"records\":" in
  let kl = String.length key in
  let rec go i acc =
    match String.index_from_opt resp i '"' with
    | None -> acc
    | Some j ->
        if j + kl <= String.length resp && String.sub resp j kl = key then
          let k = ref (j + kl) in
          while !k < String.length resp && resp.[!k] >= '0' && resp.[!k] <= '9' do
            incr k
          done;
          go !k (acc + int_of_string (String.sub resp (j + kl) (!k - j - kl)))
        else go (j + 1) acc
  in
  go 0 0

(* Setup repeated [n] times: every instance but the last is torn down;
   setup_s is the median. *)
let repeated_setup n ~setup ~teardown =
  let rec go i acc =
    let v, dt = setup i in
    if i = n - 1 then begin
      let m = median_of (dt :: acc) in
      Printf.printf "setup_s %.4f (median of %d)\n" m n;
      set ~samples:n "setup_s" m;
      v
    end
    else begin
      teardown v;
      go (i + 1) (dt :: acc)
    end
  in
  go 0 []

(* The bounded latency metric, op_ms: the workload's unit operation at
   the percentile that is steady for it ([pct]).

   - ingest, query: p1. On the shared 2-vCPU host this benchmark was
     tuned on, memory-bound work runs in two speed modes, 1.5-2x apart.
     The slow mode comes in blocks of one to a few seconds, on one CPU
     at a time, independently in each process, while a register-only
     loop keeps its speed: the host's contention, not the program's
     state. In some runs the slow mode holds most of the time, so any
     percentile that can fall into it (p10 and up) swings with its
     share. The p1 sits in the uncontended mode in every run that
     spends a hundredth of its time there, and thousands of operations
     a run leave tens of samples below it.
   - offline: p50. One 2-domain job takes anywhere from 0.35x to 1.3x
     its median within every few seconds, so its low tail is a few
     lucky jobs; the median of a few hundred is the steady figure.

   The other percentiles and the throughput are printed, not bounded. *)
let report_op ~what ~pct ~lat ~work ~work_unit ~wall =
  let s = Samples.sorted lat in
  let n = Array.length s in
  set ~samples:n
    ~note:(Printf.sprintf "%s p%d, %d samples below" what pct (rank n pct - 1))
    "op_ms" (percentile s pct);
  Printf.printf
    "%s: %d samples, p1 %.4f ms, p10 %.4f ms, p50 %.4f ms, p90 %.4f ms (%d beyond), %.2f %s/s over %.3f s\n"
    what n (percentile s 1) (percentile s 10) (percentile s 50) (percentile s 90) (beyond n 90)
    (work /. wall) work_unit wall

(* ---------- ingest: bulk flow-log load ---------- *)

let ingest_batch = 512

let ingest_inputs seed =
  let p = traffic ~seed ~scale:1.0 in
  let rng = Numerics.Prng.create ~seed:(seed + 0x1ce) () in
  (* Whole batches only, so that every batch carries 512 records and
     the auto-flush falls on every 16th batch throughout the run. *)
  let whole r =
    let n = length r / ingest_batch * ingest_batch in
    { keys = Array.sub r.keys 0 n; ws = Array.sub r.ws 0 n }
  in
  let h1 = whole (flows p ~hour:1 ~rng) in
  let h2 = whole (flows p ~hour:2 ~rng) in
  Printf.printf "ingest input: %d + %d flow records, batches of %d\n" (length h1)
    (length h2) ingest_batch;
  plan ~size:ingest_batch [| h1; h2 |]

(* Batch latencies are bimodal: 15 of 16 batches only publish, the 16th
   carries the auto-flush (512 x 16 = flush_every). The unit operation
   is therefore a flush cycle — 16 consecutive batches, 8192 records,
   one apply — whose latency is unimodal; no percentile can land on the
   boundary between the two batch kinds. Every batch is whole, so every
   window of 16 consecutive batches holds exactly one flush: the cycles
   are all such windows, which gives the low percentile 16 times the
   samples of disjoint cycles. *)
let cycle_batches = 8192 / ingest_batch

let flush_cycles lat =
  let c = Samples.create () in
  let acc = ref 0. in
  for i = 0 to Samples.length lat - 1 do
    acc := !acc +. lat.Samples.a.(i);
    if i >= cycle_batches then acc := !acc -. lat.Samples.a.(i - cycle_batches);
    if i >= cycle_batches - 1 then Samples.add c !acc
  done;
  c

let ingest_names = [ "a1"; "a2"; "b1"; "b2" ]
let set_a = [| "a1"; "a2" |]
let set_b = [| "b1"; "b2" |]

(* One domain: with a second pool domain, every stop-the-world minor GC
   waits for both, and on the 2-vCPU host that multiplies any CPU
   contention. With one vCPU kept busy by another process, the flush
   cycle median rose by about 40% at -j 2 and not at all at -j 1. *)
let serve_ingest wal =
  [ "serve"; "-j"; "1"; "--shards"; "2"; "--shared-seeds"; "--flush-every"; "8192";
    "--wal"; wal; "--fsync"; "never" ]

(* One set-up is a few milliseconds (daemon start, 4 CREATEs), so a run
   affords many; their median moves much less between runs than that of
   five. *)
let ingest_setups = 21

let ingest_setup i =
  let wal = Filename.concat work_dir (Printf.sprintf "wal%d" i) in
  let t0 = now_ns () in
  let srv = spawn (Printf.sprintf "ingest%d" i) (serve_ingest wal) in
  let conn = connect srv in
  List.iter (fun n -> ignore (expect_ok conn (create_line n))) ingest_names;
  ((srv, conn, wal), s_since t0)

let ingest_teardown (srv, conn, wal) =
  C.close conn;
  stop srv;
  rm_rf wal

(* Answers of all 8 kinds over the checked pair a1/a2, read from the
   daemon and compared byte for byte with an in-process store fed the
   same first-pass batches in the same order. *)
let ingest_verify ~batches answers =
  let st = reference_store ingest_names in
  Array.iter (fun b -> ingest_ref st ~name:set_a.(b.inst) b.recs) batches;
  List.iter2
    (fun kind resp ->
      check ("ingest answer " ^ kind) (String.equal resp (engine_answer st kind "a1" "a2")))
    kinds answers

let ingest_readback conn =
  List.map
    (fun kind ->
      let t0 = now_ns () in
      let r = expect_ok conn (query_line kind "a1" "a2") in
      (r, ms_since t0))
    kinds

(* The closed-loop feed of one connection: batches in plan order, the
   first pass over them into a1/a2 and every later pass into b1/b2, each
   acknowledgement checked and its round trip recorded. The measured and
   the traced runs both send through [feed_until]. *)
type feed = {
  conn : C.t;
  sizes : int array;  (** records per batch *)
  pay_a : string array;
  pay_b : string array;
  lat : Samples.t;
  mutable pos : int;
  mutable pass : int;
  mutable sent : int;  (** records acknowledged *)
}

let feed conn batches =
  let pays names = Array.map (fun b -> P.batch_payload ~name:names.(b.inst) b.recs) batches in
  {
    conn;
    sizes = Array.map batch_records batches;
    pay_a = pays set_a;
    pay_b = pays set_b;
    lat = Samples.create ();
    pos = 0;
    pass = 0;
    sent = 0;
  }

(* Send until [stop f elapsed_s] holds; returns the seconds spent. *)
let feed_until f stop =
  let t0 = now_ns () in
  while not (stop f (s_since t0)) do
    let payload = (if f.pass = 0 then f.pay_a else f.pay_b).(f.pos) in
    let t1 = now_ns () in
    let r = request f.conn payload in
    Samples.add f.lat (ms_since t1);
    op (P.json_ok r);
    f.sent <- f.sent + f.sizes.(f.pos);
    f.pos <- f.pos + 1;
    if f.pos = Array.length f.sizes then begin
      f.pos <- 0;
      f.pass <- f.pass + 1
    end
  done;
  s_since t0

let pass_done f _ = f.pass > 0

let run_ingest ~seed ~seconds =
  let batches = ingest_inputs seed in
  let srv, conn, wal =
    repeated_setup ingest_setups ~setup:ingest_setup ~teardown:ingest_teardown
  in
  let f = feed conn batches in
  let wall = feed_until f (fun _ elapsed -> elapsed >= seconds) in
  let timed_batches = Samples.length f.lat and timed_records = f.sent in
  let cycles = flush_cycles f.lat and b = Samples.sorted f.lat in
  (* Untimed: complete the first pass so the checked pair holds whole hours. *)
  ignore (feed_until f pass_done);
  let answers = List.map fst (ingest_readback conn) in
  let stats = expect_ok conn "STATS" in
  check "STATS records equal records sent" (stats_records stats = f.sent);
  let mem = vmhwm_mb (string_of_int srv.pid) in
  ingest_teardown (srv, conn, wal);
  ingest_verify ~batches answers;
  set ~samples:1 ~note:"VmHWM of the daemon" "mem.peak_mb" mem;
  Printf.printf "ingest: %d batches, %d records timed, %d sent in all\n" timed_batches
    timed_records f.sent;
  Printf.printf "INGESTN batch: p50 %.4f ms (cheap mode), p97 %.4f ms (flush mode)\n"
    (percentile b 50) (percentile b 97);
  report_op ~what:"flush cycle" ~pct:1 ~lat:cycles ~work:(float_of_int timed_records)
    ~work_unit:"records" ~wall

(* Per-layer replay of the first pass: the daemon's order of calls per batch —
   Protocol.parse of the header, parse_batch_record per body line,
   Store.check_ingest_many, Wal.append, Store.ingest_many (which
   auto-flushes every flush_every records). *)
type ingest_layers = {
  mutable parse : float;
  mutable admit : float;
  mutable wal : float;
  mutable publish : float;
  mutable publish_n : int;
  mutable apply : float;
  mutable apply_words : float;
  mutable flushes : int;
}

let replay_batches st ?wal ~count pays =
  let l =
    { parse = 0.; admit = 0.; wal = 0.; publish = 0.; publish_n = 0; apply = 0.;
      apply_words = 0.; flushes = 0 }
  in
  Array.iter
    (fun payload ->
      let (name, records), dt = timed (fun () -> parse_ingestn payload) in
      l.parse <- l.parse +. dt;
      let ok, dt = timed (fun () -> St.check_ingest_many st ~name ~records) in
      l.admit <- l.admit +. dt;
      if Result.is_error ok then failwith "replay batch refused";
      (match wal with
      | None -> ()
      | Some w ->
          let r, dt = timed (fun () -> Server.Wal.append w (Server.Wal.Ingest_batch { name; records })) in
          l.wal <- l.wal +. dt;
          if Result.is_error r then failwith "replay WAL append failed");
      let go () = ingest_ref st ~name records in
      let ((), dt), w = if count then counted (fun () -> timed go) else (timed go, 0.) in
      if St.pending st = 0 then begin
        (* this batch crossed flush_every: it carried an auto-flush *)
        l.apply <- l.apply +. dt;
        l.apply_words <- l.apply_words +. w;
        l.flushes <- l.flushes + 1
      end
      else begin
        l.publish <- l.publish +. dt;
        l.publish_n <- l.publish_n + 1
      end)
    pays;
  l

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let engine_layers st a b =
  (* one timed call per kind on an already-flushed store, then one
     counted call: allocation is deterministic, time is not *)
  St.flush st;
  List.map
    (fun kind ->
      let r, dt = timed (fun () -> engine_answer st kind a b) in
      let _, w = counted (fun () -> engine_answer st kind a b) in
      (kind, r, dt /. 1e6, w))
    kinds

let sampled_keys st a b =
  List.fold_left
    (fun acc name ->
      match St.find st name with
      | Some i ->
          acc
          + List.length (St.pps_sample i).Sampling.Poisson.entries
          + List.length (St.binary_sample i)
      | None -> acc)
    0 [ a; b ]

let set_engine ?(samples = 1) rows =
  List.iter
    (fun (kind, ms, w) ->
      set ~samples ("engine." ^ kind ^ ".ms") ms;
      set ~samples ~note:"exact" ("engine." ^ kind ^ ".words") w)
    rows

let set_q_groups per_kind =
  List.iter
    (fun g ->
      let xs = List.concat_map (fun (k, ms) -> if group k = g then ms else []) per_kind in
      set ~samples:(List.length xs) ("q." ^ g ^ "_p50_ms") (median_of xs))
    groups

let trace_ingest ~seed =
  (* End to end: the first pass through the daemon. *)
  let (srv, conn, wal), _ = ingest_setup 0 in
  let f = feed conn (ingest_inputs seed) in
  ignore (feed_until f pass_done);
  let e2e = Samples.sum f.lat *. 1e6 and pays = f.pay_a and records = f.sent in
  let readback = ingest_readback conn in
  check "STATS records equal records sent" (stats_records (expect_ok conn "STATS") = records);
  ingest_teardown (srv, conn, wal);
  (* Only the first-pass payloads stay live: the replay allocates on a heap
     no larger than it needs, as the daemon's is. *)
  Gc.compact ();
  set_q_groups (List.map2 (fun k (_, ms) -> (k, [ ms ])) kinds readback);
  (* Timed replay on the daemon's shard and domain count, with a WAL. *)
  let pool = Pool.create ~domains:1 () in
  let wdir = Filename.concat work_dir "replay-wal" in
  let wcfg = { (Server.Wal.default_config ~dir:wdir) with Server.Wal.fsync = Server.Wal.Never } in
  let rcv =
    match Server.Wal.recover ~pool ~store_cfg:(store_cfg ~shards:2) wcfg with
    | Ok r -> r
    | Error m -> failwith m
  in
  let st = rcv.Server.Wal.store and w = rcv.Server.Wal.wal in
  List.iter (fun name ->
      match St.create_instance st ~name ~tau:400. ~k:128 ~p:0.1 () with
      | Ok _ -> ignore (Server.Wal.append w (Server.Wal.Create { name; tau = 400.; k = 128; p = 0.1 }))
      | Error m -> failwith m) ingest_names;
  let l = replay_batches st ~wal:w ~count:false pays in
  Server.Wal.close w;
  let wal_bytes = dir_bytes wdir in
  let (), final_flush = timed (fun () -> St.flush st) in
  let rows = engine_layers st "a1" "a2" in
  List.iter2
    (fun (kind, r, _, _) (resp, _) -> check ("ingest replay answer " ^ kind) (String.equal r resp))
    rows readback;
  Pool.shutdown pool;
  (* Counting replay on one inline domain: exact allocation counts. *)
  let cst = reference_store ~shards:2 ingest_names in
  let c = replay_batches cst ~count:true pays in
  let (), fw = counted (fun () -> St.flush cst) in
  let crows = engine_layers cst "a1" "a2" in
  let nb = Array.length pays and fr = float_of_int records in
  set ~samples:records "protocol.parse.ns_per_record" (l.parse /. fr);
  set ~samples:nb "store.admit.ns_per_batch" (l.admit /. float_of_int nb);
  set ~samples:l.publish_n "store.publish.ns_per_batch" (l.publish /. float_of_int (max 1 l.publish_n));
  set ~samples:(l.flushes + 1) "store.apply.ns_per_record" ((l.apply +. final_flush) /. fr);
  set ~samples:(c.flushes + 1) ~note:"exact" "store.apply.words_per_record" ((c.apply_words +. fw) /. fr);
  set ~samples:1 ~note:"exact" "store.flush.calls" (float_of_int (c.flushes + 1));
  set ~samples:nb "wal.append.ns_per_batch" (l.wal /. float_of_int nb);
  set ~samples:records ~note:"exact" "wal.bytes_per_record" (float_of_int wal_bytes /. fr);
  set_engine (List.map2 (fun (k, _, ms, _) (_, _, _, w) -> (k, ms, w)) rows crows);
  set ~samples:1 ~note:"exact" "engine.sampled_keys" (float_of_int (sampled_keys cst "a1" "a2"));
  let layers = l.parse +. l.admit +. l.wal +. l.publish +. l.apply in
  set ~samples:nb ~note:"batches: daemon round trips minus replayed layers"
    "residual.share" ((e2e -. layers) /. e2e)

(* ---------- query: the live analytics panel ---------- *)

let panel_batch = 64
let preload_batch = 1024
let panel_names = [ "q1"; "q2"; "live" ]

type panel_inputs = {
  pre1 : (int * float) array array;  (** q1 preload batches (aggregated hour 1) *)
  pre2 : (int * float) array array;
  live : string array;  (** INGESTN payloads into the live instance *)
}

let panel_inputs ~seed ~scale =
  let p = traffic ~seed ~scale in
  let chop r size =
    Array.init ((length r + size - 1) / size) (fun i ->
        slice r (i * size) (min ((i + 1) * size) (length r)))
  in
  let a1 = aggregated p ~hour:1 and a2 = aggregated p ~hour:2 in
  let rng = Numerics.Prng.create ~seed:(seed + 0x9a7e1) () in
  let live_recs = chop (flows p ~hour:1 ~rng) panel_batch in
  Printf.printf "panel input: q1 %d keys, q2 %d keys, live batches of %d\n" (length a1)
    (length a2) panel_batch;
  {
    pre1 = chop a1 preload_batch;
    pre2 = chop a2 preload_batch;
    live = Array.map (fun r -> P.batch_payload ~name:"live" r) live_recs;
  }

(* Expected answers over the fixed pair: a store holding the same
   preload (the live instance is never queried). *)
let panel_expected inp =
  let st = reference_store panel_names in
  Array.iter (fun r -> ingest_ref st ~name:"q1" r) inp.pre1;
  Array.iter (fun r -> ingest_ref st ~name:"q2" r) inp.pre2;
  (st, List.map (fun kind -> engine_answer st kind "q1" "q2") kinds)

(* Create, preload and warm one query of each kind (the designer / OR
   table derivations every process pays once). *)
let panel_load conn inp expected =
  List.iter (fun n -> ignore (expect_ok conn (create_line n))) panel_names;
  Array.iter (fun r -> ignore (expect_ok conn (P.batch_payload ~name:"q1" r))) inp.pre1;
  Array.iter (fun r -> ignore (expect_ok conn (P.batch_payload ~name:"q2" r))) inp.pre2;
  List.iter2
    (fun kind want ->
      check ("warm-up answer " ^ kind) (String.equal (request conn (query_line kind "q1" "q2")) want))
    kinds expected

type panel_stats = {
  panel : Samples.t;
  per_kind : (string * Samples.t) list;
  mutable count : int;
}

let panel_stats () =
  { panel = Samples.create (); per_kind = List.map (fun k -> (k, Samples.create ())) kinds; count = 0 }

(* One panel: a small INGESTN batch into the live instance, then all 8
   query kinds over the fixed pair, each answer checked. *)
let run_panel conn inp expected ps =
  let t0 = now_ns () in
  op (P.json_ok (request conn inp.live.(ps.count mod Array.length inp.live)));
  List.iter2
    (fun (kind, s) want ->
      let t1 = now_ns () in
      let r = request conn (query_line kind "q1" "q2") in
      Samples.add s (ms_since t1);
      check ("panel answer " ^ kind) (String.equal r want))
    ps.per_kind expected;
  Samples.add ps.panel (ms_since t0);
  ps.count <- ps.count + 1

(* Run panels until [stop ps elapsed_s] holds. The measured and the
   traced runs both drive panels through this loop. *)
let panels_until stop conn inp expected =
  let ps = panel_stats () in
  let t0 = now_ns () in
  while not (stop ps (s_since t0)) do
    run_panel conn inp expected ps
  done;
  (ps, s_since t0)

let serve_query = [ "serve"; "-j"; "1"; "--shards"; "1"; "--shared-seeds" ]

(* A quarter of a Traffic hour per instance (6125 keys): a panel takes
   about 8 ms, so a run holds thousands and its p1 has tens of samples
   below it. At a whole hour a panel took about 90 ms; a run held a few
   hundred, and its low percentiles moved with a few slow seconds. *)
let query_scale = 0.25

(* One set-up is about 60 ms; the median of 11 moves less between runs
   than that of 5. *)
let query_setups = 11

let query_setup inp expected i =
  let t0 = now_ns () in
  let srv = spawn (Printf.sprintf "query%d" i) serve_query in
  let conn = connect srv in
  panel_load conn inp expected;
  ((srv, conn), s_since t0)

let query_teardown (srv, conn) =
  C.close conn;
  stop srv

let report_panels ~wall ps =
  report_op ~what:"panel" ~pct:1 ~lat:ps.panel ~work:(float_of_int ps.count)
    ~work_unit:"panels" ~wall;
  Printf.printf "panels %d; per-kind medians:" ps.count;
  List.iter
    (fun (k, s) -> Printf.printf " %s %.3f ms" k (percentile (Samples.sorted s) 50))
    ps.per_kind;
  print_newline ()

let run_query ~seed ~seconds =
  let inp = panel_inputs ~seed ~scale:query_scale in
  let _, expected = panel_expected inp in
  let srv, conn =
    repeated_setup query_setups ~setup:(query_setup inp expected) ~teardown:query_teardown
  in
  let ps, wall = panels_until (fun _ elapsed -> elapsed >= seconds) conn inp expected in
  set ~samples:1 ~note:"VmHWM of the daemon" "mem.peak_mb" (vmhwm_mb (string_of_int srv.pid));
  query_teardown (srv, conn);
  report_panels ~wall ps

let trace_panels = 30

let e2e_panels conn inp expected =
  let ps, _ = panels_until (fun ps _ -> ps.count = trace_panels) conn inp expected in
  set_q_groups
    (List.map (fun (k, s) -> (k, Array.to_list (Samples.sorted s))) ps.per_kind);
  Samples.sum ps.panel *. 1e6

let set_hit_ratios before =
  let after = Numerics.Memo.all_stats () in
  List.iter
    (fun c ->
      let get l = match List.assoc_opt c l with
        | Some s -> (s.Numerics.Memo.hits, s.Numerics.Memo.misses)
        | None -> (0, 0) in
      let h0, m0 = get before and h1, m1 = get after in
      let h = h1 - h0 and m = m1 - m0 in
      set ~samples:(h + m) ("memo.hit_ratio." ^ c)
        (if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)))
    caches

let parse_query_line line =
  match P.parse line with Ok (P.Query { kind; names }) -> (kind, names) | _ -> failwith "bad query"

let trace_query ~seed =
  let inp = panel_inputs ~seed ~scale:query_scale in
  let st, expected = panel_expected inp in
  let (srv, conn), _ = query_setup inp expected 0 in
  let e2e = e2e_panels conn inp expected in
  query_teardown (srv, conn);
  (* In-process replay of the same panels on the reference store (its
     warm-up answers were computed by panel_expected). *)
  let before = Numerics.Memo.all_stats () in
  let parse = ref 0. and admit = ref 0. and publish = ref 0. and flush = ref 0. in
  let eng = List.map (fun k -> (k, Samples.create ())) kinds in
  let recs = ref 0 in
  for i = 0 to trace_panels - 1 do
    let (_, records), dt =
      timed (fun () -> parse_ingestn inp.live.(i mod Array.length inp.live))
    in
    parse := !parse +. dt;
    recs := !recs + Array.length records;
    let _, dt = timed (fun () -> St.check_ingest_many st ~name:"live" ~records) in
    admit := !admit +. dt;
    let (), dt = timed (fun () -> ingest_ref st ~name:"live" records) in
    publish := !publish +. dt;
    let (), dt = timed (fun () -> St.flush st) in
    flush := !flush +. dt;
    List.iter2
      (fun (kind, s) want ->
        let (k, names), dt = timed (fun () -> parse_query_line (query_line kind "q1" "q2")) in
        parse := !parse +. dt;
        let r, dt = timed (fun () -> E.query (E.create st) k names) in
        Samples.add s (dt /. 1e6);
        check ("replay answer " ^ kind) (r = Ok want))
      eng expected
  done;
  set_hit_ratios before;
  let eng_words =
    List.map (fun kind -> (kind, snd (counted (fun () -> engine_answer st kind "q1" "q2")))) kinds
  in
  let n = float_of_int trace_panels in
  set ~samples:!recs "protocol.parse.ns_per_record" (!parse /. float_of_int !recs);
  set ~samples:trace_panels "store.admit.ns_per_batch" (!admit /. n);
  set ~samples:trace_panels "store.publish.ns_per_batch" (!publish /. n);
  set ~samples:trace_panels "store.apply.ns_per_record" (!flush /. float_of_int !recs);
  set ~samples:trace_panels "engine.flush.ms_per_panel" (!flush /. n /. 1e6);
  set_engine ~samples:trace_panels
    (List.map
       (fun (k, s) -> (k, percentile (Samples.sorted s) 50, List.assoc k eng_words))
       eng);
  set ~samples:1 ~note:"exact" "engine.sampled_keys" (float_of_int (sampled_keys st "q1" "q2"));
  let layers =
    !parse +. !admit +. !publish +. !flush
    +. List.fold_left (fun acc (_, s) -> acc +. (Samples.sum s *. 1e6)) 0. eng
  in
  set ~samples:trace_panels ~note:"panels: daemon round trips minus replayed layers"
    "residual.share" ((e2e -. layers) /. e2e)

(* ---------- the router, in query's traced run ---------- *)

(* A two-backend cluster behind the router. Every router query PULLs
   both instances' full weight maps from both backends, so the instances
   are a tenth of an hour. The router has no end-to-end workload of its
   own: on the shared host its panel times moved by up to 1.6x between
   20-second runs (see README.md). *)
let router_scale = 0.1
let router_panels = 10

(* Load the cluster through the [optsample route] binary (its warm-up
   answers must equal a single node's) and stop it. Then run the same
   router in-process over the live backends: each panel's live batch
   goes through its batch handler and each QUERY through its request
   handler, timed from outside and checked against the single node.
   After each query the steps of the router's query path are called
   once more, one at a time, for the breakdown: PULL of each instance
   from every backend, Merge.of_lines, merge_all, materialize. *)
let trace_router ~seed =
  let inp = panel_inputs ~seed ~scale:router_scale in
  let _, expected = panel_expected inp in
  let bs = List.init 2 (fun b -> spawn (Printf.sprintf "backend%d" b) serve_query) in
  List.iter (fun b -> C.close (connect b)) bs;
  let router =
    spawn "router"
      ([ "route"; "--shared-seeds" ] @ List.concat_map (fun b -> [ "--backend"; b.sock ]) bs)
  in
  let conn = connect router in
  panel_load conn inp expected;
  C.close conn;
  stop router;
  let cfg = store_cfg ~shards:1 in
  let r =
    match Server.Router.connect ~store_cfg:cfg (List.map (fun b -> Unix.ADDR_UNIX b.sock) bs) with
    | Ok r -> r
    | Error m -> failwith m
  in
  let h = Server.Router.handlers r in
  let clients = List.map connect bs in
  let seeds = Sampling.Seeds.create ~master:42 Sampling.Seeds.Shared in
  let mpool = Pool.create ~domains:1 () in
  let query = ref 0. and pull = ref 0. and lines = ref 0 and bytes = ref 0 in
  let mparse = ref 0. and merge = ref 0. and mat = ref 0. in
  let ok = function Ok v -> v | Error m -> failwith m in
  let breakdown names =
    let summaries =
      List.map
        (fun name ->
          let parts =
            List.map
              (fun c ->
                let (header, body), dt = timed (fun () -> ok (C.request_lines c ("PULL " ^ name))) in
                pull := !pull +. dt;
                op (P.json_ok header);
                lines := !lines + List.length body;
                bytes := List.fold_left (fun acc l -> acc + String.length l + 1) !bytes body;
                let s, dt = timed (fun () -> Server.Merge.of_lines body) in
                mparse := !mparse +. dt;
                ok s)
              clients
          in
          let s, dt = timed (fun () -> Server.Merge.merge_all seeds parts) in
          merge := !merge +. dt;
          ok s)
        names
    in
    let mst, dt = timed (fun () -> Server.Merge.materialize ~pool:mpool cfg summaries) in
    mat := !mat +. dt;
    ignore (ok mst)
  in
  let queries = ref 0 in
  for i = 0 to router_panels - 1 do
    let name, records = parse_ingestn inp.live.(i mod Array.length inp.live) in
    op (P.json_ok (h.Server.Daemon.on_batch ~name records));
    List.iter2
      (fun kind want ->
        let k, names = parse_query_line (query_line kind "q1" "q2") in
        let (resp, _), dt = timed (fun () -> h.Server.Daemon.on_request (P.Query { kind = k; names })) in
        query := !query +. dt;
        incr queries;
        check ("router answer " ^ kind) (String.equal resp want);
        breakdown names)
      kinds expected
  done;
  Server.Router.close r;
  List.iter C.close clients;
  List.iter stop bs;
  let q = float_of_int !queries in
  set ~samples:!queries ~note:"Router request handler, in-process" "router.query.ms_per_query"
    (!query /. q /. 1e6);
  set ~samples:!queries "router.pull.ms_per_query" (!pull /. q /. 1e6);
  set ~samples:!queries ~note:"exact" "router.pull.lines_per_query" (float_of_int !lines /. q);
  set ~samples:!queries ~note:"exact" "router.pull.bytes_per_query" (float_of_int !bytes /. q);
  set ~samples:!queries "merge.parse.ms_per_query" (!mparse /. q /. 1e6);
  set ~samples:!queries "merge.merge.ms_per_query" (!merge /. q /. 1e6);
  set ~samples:!queries "merge.materialize.ms_per_query" (!mat /. q /. 1e6)

(* ---------- offline: the paper pipeline on a 2-domain pool ---------- *)

let mc_trials = 40_000
let fig4_steps = 200
let probs8 = Array.make 8 0.2

let offline_data seed =
  let rng = Numerics.Prng.create ~seed:(seed + 0x0ff1) () in
  Array.init 8 (fun _ -> 1. +. (9. *. Numerics.Prng.float rng))

(* One job from cold derivation caches, as one pipeline invocation pays
   it: r=8 coefficients, the sharded Monte-Carlo run, the Fig. 4 sweep. *)
let job ?(split = fun _ f -> f ()) pool ~master v8 =
  Numerics.Memo.clear_all ();
  let coeffs = Estcore.Max_oblivious.Coeffs.compute ~r:8 ~p:0.2 in
  let est = Estcore.Max_oblivious.l_uniform coeffs in
  let draw rng = Sampling.Outcome.Oblivious.draw rng ~probs:probs8 v8 in
  let rng = Numerics.Prng.create ~seed:master () in
  let m = ref None and rows = ref [] in
  split `Mc (fun () ->
      m := Some (Estcore.Exact.monte_carlo ~pool ~master ~shards:64 ~rng ~n:mc_trials ~draw est));
  split `Fig4 (fun () -> rows := Experiments.Fig4.panel ~pool ~rho:0.5 ~steps:fig4_steps ());
  (Option.get !m, !rows)

(* One set-up (pool start and a cold job) is about 90 ms. *)
let offline_setups = 11

let offline_setup ~master v8 _ =
  let t0 = now_ns () in
  let pool = Pool.create ~domains:2 () in
  let first = job pool ~master v8 in
  ((pool, first), s_since t0)

let run_offline ~seed ~seconds =
  let v8 = offline_data seed and master = seed in
  let pool, first =
    repeated_setup offline_setups ~setup:(offline_setup ~master v8) ~teardown:(fun (p, _) -> Pool.shutdown p)
  in
  let lat = Samples.create () in
  let t0 = now_ns () in
  while s_since t0 < seconds do
    let t1 = now_ns () in
    let r = job pool ~master v8 in
    Samples.add lat (ms_since t1);
    check "job result equals the first job's" (r = first)
  done;
  let wall = s_since t0 in
  Pool.shutdown pool;
  let p1 = Pool.create ~domains:1 () in
  check "2-domain result equals the 1-domain run" (job p1 ~master v8 = first);
  set ~samples:1 ~note:"VmHWM of this process" "mem.peak_mb" (vmhwm_mb "self");
  report_op ~what:"job" ~pct:50 ~lat ~work:(float_of_int (Samples.length lat))
    ~work_unit:"jobs" ~wall

let trace_jobs = 20

let trace_offline ~seed =
  let v8 = offline_data seed and master = seed in
  let p1 = Pool.create ~domains:1 () in
  let reference = job p1 ~master v8 in
  (* 1-domain jobs first: once pool domains exist, every minor GC is a
     multi-domain stop-the-world *)
  let one = List.init 3 (fun _ -> snd (timed (fun () -> job p1 ~master v8))) in
  let pool = Pool.create ~domains:2 () in
  ignore (job pool ~master v8);
  let mc = Samples.create () and fig4 = Samples.create () and jobs = Samples.create () in
  let split which f =
    let (), dt = timed f in
    Samples.add (match which with `Mc -> mc | `Fig4 -> fig4) dt
  in
  let minor0 = (Gc.quick_stat ()).Gc.minor_collections in
  for _ = 1 to trace_jobs do
    let r, dt = timed (fun () -> job ~split pool ~master v8) in
    Samples.add jobs dt;
    check "traced job equals the 1-domain run" (r = reference)
  done;
  let minors = (Gc.quick_stat ()).Gc.minor_collections - minor0 in
  Pool.shutdown pool;
  (* Draw and estimate separately, sequentially, over the same trials. *)
  let coeffs = Estcore.Max_oblivious.Coeffs.compute ~r:8 ~p:0.2 in
  let rng = Numerics.Prng.substream ~master 0 in
  let outcomes, t_draw =
    timed (fun () ->
        Array.init mc_trials (fun _ -> Sampling.Outcome.Oblivious.draw rng ~probs:probs8 v8))
  in
  let acc = ref 0. in
  let (), t_est =
    timed (fun () ->
        Array.iter (fun o -> acc := !acc +. Estcore.Max_oblivious.l_uniform coeffs o) outcomes)
  in
  ignore (Sys.opaque_identity !acc);
  let est = Estcore.Max_oblivious.l_uniform coeffs in
  let draw rng = Sampling.Outcome.Oblivious.draw rng ~probs:probs8 v8 in
  let _, w =
    counted (fun () ->
        Estcore.Exact.monte_carlo ~pool:p1 ~master ~shards:64
          ~rng:(Numerics.Prng.create ~seed:master ()) ~n:mc_trials ~draw est)
  in
  let n = float_of_int mc_trials in
  set ~samples:mc_trials "mc.draw.ns_per_trial" (t_draw /. n);
  set ~samples:mc_trials "mc.estimate.ns_per_trial" (t_est /. n);
  set ~samples:mc_trials ~note:"exact" "mc.words_per_trial" (w /. n);
  set ~samples:trace_jobs "fig4.ms_per_panel" (percentile (Samples.sorted fig4) 50 /. 1e6);
  set ~samples:3 ~note:"1-domain job time / 2-domain job time" "pool.speedup"
    (median_of one /. percentile (Samples.sorted jobs) 50);
  set ~samples:trace_jobs "gc.minor_collections_per_job"
    (float_of_int minors /. float_of_int trace_jobs);
  let e2e = Samples.sum jobs in
  set ~samples:trace_jobs ~note:"jobs: job wall minus Monte-Carlo and Fig. 4 spans"
    "residual.share" ((e2e -. Samples.sum mc -. Samples.sum fig4) /. e2e)

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload ingest|query|offline --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace
    when seconds > 0. && List.mem w [ "ingest"; "query"; "offline" ] ->
      if not (Sys.file_exists optsample) then begin
        prerr_endline ("perfbench: " ^ optsample ^ " not built");
        exit 2
      end;
      (try Unix.mkdir ".bench_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Unix.mkdir work_dir 0o755;
      Printf.printf "perfbench workload %s seed %d seconds %g trace %b\n%!" w seed seconds trace;
      host_calib ();
      (match (w, trace) with
      | "ingest", false -> run_ingest ~seed ~seconds
      | "ingest", true -> trace_ingest ~seed
      | "query", false -> run_query ~seed ~seconds
      | "query", true ->
          trace_query ~seed;
          trace_router ~seed
      | "offline", false -> run_offline ~seed ~seconds
      | _ -> trace_offline ~seed);
      finish ~workload:w ~trace
  | _ -> usage ()
