(* Tests for the streaming summary service: protocol parsing, the
   sharded store (incremental summaries vs. the batch samplers,
   determinism across shard counts), snapshots, the query engine, and an
   end-to-end daemon session over TCP. *)

module I = Sampling.Instance
module P = Server.Protocol
module Store = Server.Store
module Engine = Server.Engine
module Snapshot = Server.Snapshot

let check_float ?(eps = 1e-9) msg expected actual =
  if not (Numerics.Special.float_equal ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let check_request msg line expected =
  match P.parse line with
  | Ok req ->
      Alcotest.(check bool) msg true (req = expected)
  | Error e -> Alcotest.failf "%s: parse error: %s" msg e.Sampling.Io.message

let check_rejected msg line =
  match P.parse line with
  | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
  | Error e ->
      Alcotest.(check bool)
        (msg ^ " carries a message")
        true
        (String.length e.Sampling.Io.message > 0)

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_parse () =
  check_request "hello" "HELLO 1" (P.Hello 1);
  check_request "create bare" "CREATE h1"
    (P.Create { name = "h1"; tau = None; k = None; p = None });
  check_request "create params" "CREATE h.2-x tau=50.5 k=16 p=0.25"
    (P.Create { name = "h.2-x"; tau = Some 50.5; k = Some 16; p = Some 0.25 });
  check_request "ingest" "INGEST h1 17 3.5"
    (P.Ingest { name = "h1"; key = 17; weight = 3.5 });
  check_request "ingestn" "INGESTN h1 16"
    (P.Ingest_many { name = "h1"; count = 16 });
  check_request "ingestn at the cap"
    (Printf.sprintf "INGESTN h1 %d" P.max_batch)
    (P.Ingest_many { name = "h1"; count = P.max_batch });
  check_request "query max" "QUERY max h1 h2"
    (P.Query { kind = P.Max; names = [ "h1"; "h2" ] });
  check_request "query or" "QUERY or a b c"
    (P.Query { kind = P.Or; names = [ "a"; "b"; "c" ] });
  check_request "query distinct" "QUERY distinct h1 h2"
    (P.Query { kind = P.Distinct; names = [ "h1"; "h2" ] });
  check_request "query dominance" "QUERY dominance h1 h2"
    (P.Query { kind = P.Dominance; names = [ "h1"; "h2" ] });
  check_request "snapshot" "SNAPSHOT /tmp/s.snap" (P.Snapshot "/tmp/s.snap");
  check_request "stats" "STATS" P.Stats;
  check_request "flush" "FLUSH" P.Flush;
  check_request "quit" "QUIT" P.Quit;
  check_request "shutdown" "SHUTDOWN" P.Shutdown

let test_protocol_parse_errors () =
  check_rejected "empty" "";
  check_rejected "unknown verb" "BOGUS 1";
  check_rejected "hello wrong version" "HELLO 2";
  check_rejected "hello non-int" "HELLO one";
  check_rejected "create bad name" "CREATE bad name";
  check_rejected "create bad param" "CREATE h1 q=3";
  check_rejected "create tau nonpositive" "CREATE h1 tau=0";
  check_rejected "create p out of range" "CREATE h1 p=1.5";
  check_rejected "ingest missing weight" "INGEST h1 17";
  check_rejected "ingest nonpositive weight" "INGEST h1 17 0";
  check_rejected "ingest non-finite weight" "INGEST h1 17 inf";
  check_rejected "ingest bad key" "INGEST h1 x 1.0";
  check_rejected "ingestn zero count" "INGESTN h1 0";
  check_rejected "ingestn over the cap"
    (Printf.sprintf "INGESTN h1 %d" (P.max_batch + 1));
  check_rejected "ingestn non-int count" "INGESTN h1 x";
  check_rejected "ingestn missing count" "INGESTN h1";
  check_rejected "query unknown kind" "QUERY median h1 h2";
  check_rejected "query one name" "QUERY max h1";
  check_rejected "snapshot no path" "SNAPSHOT";
  check_rejected "stats trailing" "STATS now"

let test_protocol_json () =
  let line =
    P.ok_fields
      [ ("name", P.jstr "h \"1\""); ("estimate", P.jfloat 0.1);
        ("n", P.jint 42) ]
  in
  Alcotest.(check bool) "ok" true (P.json_ok line);
  Alcotest.(check (option string)) "int field" (Some "42")
    (P.json_field "n" line);
  (match P.json_float_field "estimate" line with
  | Some v -> check_float ~eps:0. "float survives %.17g" 0.1 v
  | None -> Alcotest.fail "estimate field missing");
  Alcotest.(check (option string)) "escaped string decodes" (Some "h \"1\"")
    (P.json_field "name" line);
  let err = P.error "bad \"input\"" in
  Alcotest.(check bool) "error not ok" false (P.json_ok err);
  Alcotest.(check bool) "greeting ok" true (P.json_ok P.greeting);
  Alcotest.(check (option string)) "greeting protocol"
    (Some (string_of_int P.version))
    (P.json_field "protocol" P.greeting);
  Alcotest.(check bool) "valid name" true (P.valid_name "a.B-2_c");
  Alcotest.(check bool) "invalid name" false (P.valid_name "a b")

let test_protocol_batch_framing () =
  let records = [| (17, 3.5); (0, 0x1.fffp-3); (4096, 1e9) |] in
  let payload = P.batch_payload ~name:"h1" records in
  (match String.split_on_char '\n' payload with
  | header :: body ->
      check_request "batch header" header
        (P.Ingest_many { name = "h1"; count = 3 });
      Alcotest.(check int) "one body line per record" 3 (List.length body);
      List.iteri
        (fun i line ->
          match P.parse_batch_record line with
          | Ok (key, weight) ->
              Alcotest.(check int) "key roundtrips" (fst records.(i)) key;
              check_float ~eps:0. "weight roundtrips bit-exactly"
                (snd records.(i)) weight
          | Error e -> Alcotest.failf "record %d: %s" i e.Sampling.Io.message)
        body
  | [] -> Alcotest.fail "empty payload");
  List.iter
    (fun line ->
      match P.parse_batch_record line with
      | Ok _ -> Alcotest.failf "bad record %S accepted" line
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S carries a message" line)
            true
            (String.length e.Sampling.Io.message > 0))
    [ ""; "7"; "7 0"; "7 -1"; "7 nan"; "x 1.0"; "7 1 extra" ];
  (match P.batch_payload ~name:"h1" [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty batch payload accepted");
  match P.batch_payload ~name:"h1" (Array.make (P.max_batch + 1) (1, 1.)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized batch payload accepted"

(* Batch-body diagnostics carry the 1-based body line number, so a
   client can point at the offending record of a thousand-line INGESTN
   the same way single-line INGEST errors point at the request. *)
let test_protocol_batch_line_numbers () =
  List.iter
    (fun bad ->
      match P.parse_batch_record ~line:3 bad with
      | Ok _ -> Alcotest.failf "bad record %S accepted" bad
      | Error e ->
          Alcotest.(check int)
            (Printf.sprintf "%S reports its body line" bad)
            3 e.Sampling.Io.line;
          let rendered = Sampling.Io.parse_error_to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "%S renders 'line 3:'" bad)
            true
            (String.length rendered >= 7 && String.sub rendered 0 7 = "line 3:"))
    [ "7 nan"; "7 inf"; "7 -1"; "7 0"; "x 1.0"; "" ];
  (* A good record parses identically whatever line it sits on. *)
  match P.parse_batch_record ~line:9 "7 0x1.8p1" with
  | Ok (key, weight) ->
      Alcotest.(check int) "key" 7 key;
      check_float ~eps:0. "weight" 3.0 weight
  | Error e -> Alcotest.failf "good record rejected: %s" e.Sampling.Io.message

(* retry_after_ms hints are advice, not authority: non-finite and
   negative hints fall back to jittered backoff, and a sane hint is
   clamped into the attempt's backoff envelope. *)
let test_client_hint_clamping () =
  let retry = Server.Client.default_retry in
  (* default: base 10ms, max 2000ms -> envelope 10*2^attempt up to 2000 *)
  let clamp = Server.Client.clamp_hint_ms retry in
  Alcotest.(check (option int)) "NaN discarded" None (clamp ~attempt:0 Float.nan);
  Alcotest.(check (option int)) "+inf discarded" None
    (clamp ~attempt:0 Float.infinity);
  Alcotest.(check (option int)) "-inf discarded" None
    (clamp ~attempt:0 Float.neg_infinity);
  Alcotest.(check (option int)) "negative discarded" None
    (clamp ~attempt:0 (-5.));
  Alcotest.(check (option int)) "in-envelope hint honored" (Some 5)
    (clamp ~attempt:0 5.);
  Alcotest.(check (option int)) "zero honored" (Some 0) (clamp ~attempt:0 0.);
  Alcotest.(check (option int)) "absurd hint clamped to the envelope"
    (Some 10) (clamp ~attempt:0 1e300);
  Alcotest.(check (option int)) "envelope grows with the attempt" (Some 80)
    (clamp ~attempt:3 1e9);
  Alcotest.(check (option int)) "envelope capped at max_delay_ms" (Some 2000)
    (clamp ~attempt:19 1e9);
  (* The jittered draw itself never leaves the envelope either. *)
  let rng = Numerics.Prng.create ~seed:7 () in
  for attempt = 0 to 12 do
    let ms = Server.Client.backoff_ms rng retry ~attempt in
    Alcotest.(check bool) "backoff within the envelope" true
      (ms >= 0 && ms <= retry.Server.Client.max_delay_ms)
  done

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let cfg_one =
  { Store.default_config with master = 99; flush_every = 1024 }

let ingest_exn st ~name ~key ~weight =
  match Store.ingest st ~name ~key ~weight with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ingest: %s" (Store.ingest_error_to_string e)

let create_exn st ~name ?tau ?k ?p () =
  match Store.create_instance st ~name ?tau ?k ?p () with
  | Ok i -> i
  | Error m -> Alcotest.failf "create_instance: %s" m

(* A deterministic stream with heavy key repetition, so the incremental
   summaries face in-place weight growth (the interesting case). *)
let feed_random st ~names ~records ~keys ~seed =
  let rng = Numerics.Prng.create ~seed () in
  let pick n = int_of_float (Numerics.Prng.float rng *. float_of_int n) in
  for _ = 1 to records do
    let name = List.nth names (pick (List.length names)) in
    let key = 1 + pick keys in
    let weight = 0.1 +. (Numerics.Prng.float rng *. 20.) in
    ingest_exn st ~name ~key ~weight
  done

let test_store_incremental_matches_batch () =
  let st = Store.create cfg_one in
  let inst = create_exn st ~name:"h1" ~tau:40. ~k:32 ~p:0.3 () in
  feed_random st ~names:[ "h1" ] ~records:4000 ~keys:500 ~seed:5;
  Store.flush st;
  Alcotest.(check int) "all records applied" 4000 (Store.records inst);
  Alcotest.(check int) "nothing pending" 0 (Store.pending st);
  let acc = Store.to_instance inst in
  let seeds = Store.seeds st in
  Alcotest.(check bool) "pps equals batch sampler" true
    (Store.pps_sample inst
    = Sampling.Poisson.pps_sample seeds ~instance:0 ~tau:40. acc);
  Alcotest.(check bool) "bottom-k equals batch sampler" true
    (Store.bottom_k inst
    = Sampling.Bottom_k.sample seeds ~family:Sampling.Rank.PPS ~instance:0
        ~k:32 acc);
  Alcotest.(check bool) "binary equals batch sampler" true
    (Store.binary_sample inst
    = Aggregates.Distinct.sample_binary seeds ~p:0.3 ~instance:0 acc);
  check_float "volume" (I.total acc) (Store.volume inst);
  Alcotest.(check int) "cardinality" (I.cardinality acc)
    (Store.cardinality inst)

let test_store_ingest_guards () =
  let st = Store.create cfg_one in
  ignore (create_exn st ~name:"h1" ());
  Alcotest.(check bool) "unknown instance" true
    (Result.is_error (Store.ingest st ~name:"nope" ~key:1 ~weight:1.));
  Alcotest.(check bool) "nonpositive weight" true
    (Result.is_error (Store.ingest st ~name:"h1" ~key:1 ~weight:0.));
  Alcotest.(check bool) "non-finite weight" true
    (Result.is_error (Store.ingest st ~name:"h1" ~key:1 ~weight:nan));
  Alcotest.(check bool) "duplicate name" true
    (Result.is_error
       (Result.map (fun _ -> ()) (Store.create_instance st ~name:"h1" ())))

let test_store_auto_flush () =
  let st = Store.create { cfg_one with flush_every = 64 } in
  ignore (create_exn st ~name:"h1" ());
  for k = 1 to 64 do
    ingest_exn st ~name:"h1" ~key:k ~weight:1.
  done;
  (* The 64th push crossed [flush_every]: everything was applied. *)
  Alcotest.(check int) "auto-flushed" 0 (Store.pending st)

(* Every field of every instance. The coordinated-summary determinism
   claim: these are bit-identical whatever the shard / domain count, and
   across a snapshot round trip. *)
let summaries_of st =
  Store.flush st;
  List.map
    (fun i ->
      ( (Store.name i, Store.id i, Store.instance_config i),
        (Store.records i, Store.volume i, Store.cardinality i),
        Store.pps_sample i, Store.bottom_k i, Store.binary_sample i ))
    (Store.instances st)

let test_store_ingest_many () =
  (* Bit-identity: a batch is exactly its records applied in arrival
     order — the single-CAS publish must not reorder them. Repeated keys
     make order observable through the incremental summaries. *)
  let records =
    Array.init 300 (fun i -> ((i * 7 mod 97) + 1, 0.5 +. (float_of_int i /. 13.)))
  in
  let build batched =
    let st = Store.create cfg_one in
    ignore (create_exn st ~name:"h" ~tau:40. ~k:32 ~p:0.3 ());
    if batched then (
      match Store.ingest_many st ~name:"h" ~records with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "ingest_many: %s" (Store.ingest_error_to_string e))
    else
      Array.iter (fun (key, weight) -> ingest_exn st ~name:"h" ~key ~weight)
        records;
    st
  in
  Alcotest.(check bool) "batch bit-identical to singles" true
    (summaries_of (build true) = summaries_of (build false))

let test_store_ingest_many_guards () =
  let st =
    Store.create { cfg_one with flush_every = max_int; max_inflight = 10 }
  in
  ignore (create_exn st ~name:"h" ());
  let records n = Array.init n (fun i -> (i + 1, 1.)) in
  (* All-or-nothing admission: a batch that would overflow the mailbox
     budget is shed whole, with no side effect. *)
  (match Store.check_ingest_many st ~name:"h" ~records:(records 11) with
  | Error (Store.Overloaded { depth; limit }) ->
      Alcotest.(check int) "depth reported" 0 depth;
      Alcotest.(check int) "limit reported" 10 limit
  | _ -> Alcotest.fail "expected an overload shed");
  (match Store.ingest_many st ~name:"h" ~records:(records 11) with
  | Error (Store.Overloaded _) -> ()
  | _ -> Alcotest.fail "ingest_many should shed too");
  Alcotest.(check int) "nothing queued by a shed batch" 0 (Store.pending st);
  (* Rejections: empty batch, a bad weight anywhere in the batch, an
     unknown instance — all before anything is queued. *)
  Alcotest.(check bool) "empty batch rejected" true
    (Result.is_error (Store.ingest_many st ~name:"h" ~records:[||]));
  Alcotest.(check bool) "bad weight poisons the whole batch" true
    (Result.is_error
       (Store.ingest_many st ~name:"h" ~records:[| (1, 1.); (2, 0.) |]));
  Alcotest.(check bool) "unknown instance" true
    (Result.is_error (Store.ingest_many st ~name:"nope" ~records:(records 2)));
  Alcotest.(check int) "still nothing queued" 0 (Store.pending st);
  (* A batch that exactly fits the budget lands whole. *)
  (match Store.ingest_many st ~name:"h" ~records:(records 10) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fit batch: %s" (Store.ingest_error_to_string e));
  Alcotest.(check int) "all ten queued" 10 (Store.pending st)

let answers_of st =
  let e = Engine.create st in
  List.map
    (fun (kind, names) ->
      match Engine.query e kind names with
      | Ok s -> s
      | Error m -> Alcotest.failf "query: %s" m)
    [ (P.Max, [ "a"; "b" ]); (P.Or, [ "a"; "b" ]);
      (P.Distinct, [ "a"; "b" ]); (P.Dominance, [ "a"; "b" ]);
      (P.Distinct, [ "a"; "b"; "c" ]) ]

let test_store_shard_determinism () =
  let build shards =
    let pool = Numerics.Pool.create ~domains:shards () in
    let st =
      Store.create ~pool
        { Store.default_config with shards; master = 7; flush_every = 257 }
    in
    List.iter
      (fun name -> ignore (create_exn st ~name ~tau:30. ~k:24 ~p:0.4 ()))
      [ "a"; "b"; "c" ];
    feed_random st ~names:[ "a"; "b"; "c" ] ~records:6000 ~keys:300 ~seed:17;
    (st, pool)
  in
  let st1, p1 = build 1 in
  let reference_summaries = summaries_of st1 in
  let reference_answers = answers_of st1 in
  List.iter
    (fun shards ->
      let st, p = build shards in
      Alcotest.(check bool)
        (Printf.sprintf "summaries identical at %d shards" shards)
        true
        (summaries_of st = reference_summaries);
      Alcotest.(check (list string))
        (Printf.sprintf "answers identical at %d shards" shards)
        reference_answers (answers_of st);
      Numerics.Pool.shutdown p)
    [ 2; 4 ];
  Numerics.Pool.shutdown p1

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

let populated_store () =
  let st = Store.create cfg_one in
  ignore (create_exn st ~name:"h1" ~tau:40. ~k:16 ~p:0.3 ());
  ignore (create_exn st ~name:"h2" ~tau:60. ~k:16 ~p:0.2 ());
  feed_random st ~names:[ "h1"; "h2" ] ~records:2000 ~keys:250 ~seed:23;
  Store.flush st;
  st

let of_string_exn s =
  match Snapshot.of_string_r s with
  | Ok st -> st
  | Error e ->
      Alcotest.failf "snapshot parse: line %d: %s" e.Sampling.Io.line
        e.Sampling.Io.message

let test_snapshot_roundtrip () =
  let st = populated_store () in
  let s = Snapshot.to_string st in
  let st2 = of_string_exn s in
  Alcotest.(check string) "byte-identical round trip" s
    (Snapshot.to_string st2);
  Alcotest.(check bool) "every summary field identical after reload" true
    (summaries_of st = summaries_of st2);
  let stats st = fst (Engine.handle_request (Engine.create st) P.Stats) in
  Alcotest.(check string) "STATS byte-identical after reload" (stats st)
    (stats st2)

let test_snapshot_requery_identical () =
  let st = populated_store () in
  let e = Engine.create st in
  let st2 = of_string_exn (Snapshot.to_string st) in
  let e2 = Engine.create st2 in
  List.iter
    (fun (kind, names) ->
      match (Engine.query e kind names, Engine.query e2 kind names) with
      | Ok a, Ok b ->
          Alcotest.(check string)
            (P.query_kind_name kind ^ " identical after reload")
            a b
      | _ -> Alcotest.fail "query failed")
    [ (P.Max, [ "h1"; "h2" ]); (P.Or, [ "h1"; "h2" ]);
      (P.Distinct, [ "h1"; "h2" ]); (P.Dominance, [ "h1"; "h2" ]) ]

let test_snapshot_guards () =
  let st = populated_store () in
  let s = Snapshot.to_string st in
  let lines = String.split_on_char '\n' s in
  let parse_error msg s =
    match Snapshot.of_string_r s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" msg
    | Error e ->
        Alcotest.(check bool) (msg ^ " carries a message") true
          (String.length e.Sampling.Io.message > 0);
        e
  in
  let fail_parse msg s = ignore (parse_error msg s) in
  let fail_at msg line s =
    Alcotest.(check int) (msg ^ ": line") line
      (parse_error msg s).Sampling.Io.line
  in
  let starts prefix l =
    String.length l >= String.length prefix
    && String.sub l 0 (String.length prefix) = prefix
  in
  fail_at "bad magic" 1 ("bogus 1\n" ^ String.concat "\n" (List.tl lines));
  fail_parse "trailing garbage" (s ^ "junk\n");
  (* Drop the final [end] marker: truncated input. *)
  let no_end =
    let rec drop_last_end acc = function
      | [] -> List.rev acc
      | [ "end"; "" ] -> List.rev acc @ [ "" ]
      | x :: rest -> drop_last_end (x :: acc) rest
    in
    String.concat "\n" (drop_last_end [] lines)
  in
  fail_parse "truncated" no_end;
  (* Duplicate the first weight line of the first section: the strict
     ascending-key check of the section parser refuses it. *)
  let dup =
    let rec dup_first = function
      | [] -> []
      | x :: rest ->
          if starts "w " x then x :: x :: rest else x :: dup_first rest
    in
    String.concat "\n" (dup_first lines)
  in
  fail_parse "duplicate key" dup;
  (* A format-1 file is refused on its first line, not half-read. *)
  fail_at "format 1 refused" 1
    "optsample-snapshot 1 42 independent 0x1.9p+6 64 0x1.999999999999ap-5 \
     8192 1\ninstance h 0 0x1.9p+6 64 0x1.999999999999ap-5\n1 0x1p+0\nend\n";
  (* A bad line inside the second section is reported at its line in the
     whole file, not at its offset within the section. *)
  let second =
    let rec find i seen = function
      | [] -> Alcotest.fail "no second section"
      | l :: rest ->
          if starts "summary " l then
            if seen then i else find (i + 1) true rest
          else find (i + 1) seen rest
    in
    find 0 false lines
  in
  let bad = second + 1 in
  let corrupt =
    String.concat "\n"
      (List.mapi (fun i l -> if i = bad then "w x 0x1p0" else l) lines)
  in
  fail_at "bad line in the second section" (bad + 1) corrupt;
  (* A name taken by an earlier section is refused at the later header. *)
  let renamed =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i = second then
             match String.split_on_char ' ' l with
             | "summary" :: _ :: rest -> String.concat " " ("summary" :: "h1" :: rest)
             | _ -> l
           else l)
         lines)
  in
  fail_at "duplicate instance name" (second + 1) renamed;
  (* Samples that parse but contradict the weights and seeds are refused
     at the offending line: a PPS value that is not its key's weight, and
     a PPS entry dropped from the sample. *)
  let first_s =
    let rec find i = function
      | [] -> Alcotest.fail "no PPS line"
      | l :: rest -> if starts "s " l then i else find (i + 1) rest
    in
    find 0 lines
  in
  let doubled =
    String.concat "\n"
      (List.mapi
         (fun i l ->
           if i = first_s then
             match String.split_on_char ' ' l with
             | [ "s"; key; v ] ->
                 Printf.sprintf "s %s %h" key (2. *. float_of_string v)
             | _ -> l
           else l)
         lines)
  in
  fail_at "PPS value off its weight" (first_s + 1) doubled;
  let dropped =
    String.concat "\n" (List.filteri (fun i _ -> i <> first_s) lines)
  in
  fail_at "PPS entry missing" (first_s + 1) dropped

(* The header defaults are validated the way CREATE validates its
   parameters: a restored store must never serve a bare CREATE with a
   k, p or flush cadence that CREATE itself would refuse. *)
let test_snapshot_header_validation () =
  let header fields = "optsample-snapshot 2 42 independent " ^ fields ^ "\n" in
  let refused msg fields =
    match Snapshot.of_string_r (header fields) with
    | Ok _ -> Alcotest.failf "%s: header accepted" msg
    | Error e ->
        Alcotest.(check int) (msg ^ " diagnosed on line 1") 1 e.Sampling.Io.line
  in
  refused "k = 0" "0x1p+6 0 0x1p-1 8192 0";
  refused "negative k" "0x1p+6 -3 0x1p-1 8192 0";
  refused "p = 0" "0x1p+6 64 0x0p+0 8192 0";
  refused "p > 1" "0x1p+6 64 0x1.8p+0 8192 0";
  refused "flush_every < 0" "0x1p+6 64 0x1p-1 -5 0";
  refused "flush_every = 0" "0x1p+6 64 0x1p-1 0 0";
  refused "tau = 0" "0x0p+0 64 0x1p-1 8192 0";
  refused "all at once" "0x1p+6 0 0x1.8p+0 -5 0";
  match Snapshot.of_string_r (header "0x1p+6 64 0x1p-1 8192 0") with
  | Ok st ->
      let cfg = Store.config st in
      Alcotest.(check int) "valid header: k" 64 cfg.Store.default_k;
      Alcotest.(check int) "valid header: flush_every" 8192
        cfg.Store.flush_every
  | Error e -> Alcotest.failf "valid header refused: %s" e.Sampling.Io.message

let test_snapshot_file_io () =
  let st = populated_store () in
  let path = Filename.temp_file "store" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Snapshot.write st ~path with
      | Ok n -> Alcotest.(check int) "instances written" 2 n
      | Error m -> Alcotest.failf "write: %s" m);
      match Snapshot.load path with
      | Ok st2 ->
          Alcotest.(check bool)
            "every summary field identical after file reload" true
            (summaries_of st = summaries_of st2)
      | Error e -> Alcotest.failf "load: %s" e.Sampling.Io.message)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_session_verbs () =
  let e = Engine.create (Store.create cfg_one) in
  let resp, act = Engine.handle_line e "CREATE h1 tau=50 k=8 p=0.5" in
  Alcotest.(check bool) "create ok" true (P.json_ok resp);
  Alcotest.(check bool) "create continues" true (act = Engine.Continue);
  let resp, _ = Engine.handle_line e "CREATE h1" in
  Alcotest.(check bool) "duplicate create rejected" false (P.json_ok resp);
  let resp, _ = Engine.handle_line e "INGEST h1 3 2.5" in
  Alcotest.(check bool) "ingest ok" true (P.json_ok resp);
  (* Batched framing is connection-level: a bare INGESTN header reaching
     the request dispatcher (no body collection in front of it) is
     answered as an error, not silently dropped. *)
  let resp, act = Engine.handle_line e "INGESTN h1 4" in
  Alcotest.(check bool) "bare INGESTN header rejected" false (P.json_ok resp);
  Alcotest.(check bool) "ingestn error continues" true (act = Engine.Continue);
  let resp = Engine.handle_ingest_many e ~name:"h1" [| (5, 1.5); (6, 2.5) |] in
  Alcotest.(check bool) "handle_ingest_many ok" true (P.json_ok resp);
  Alcotest.(check (option string)) "ingested count" (Some "2")
    (P.json_field "ingested" resp);
  let resp, _ = Engine.handle_line e "FLUSH" in
  Alcotest.(check bool) "flush ok" true (P.json_ok resp);
  Alcotest.(check (option string)) "flush reports empty mailboxes"
    (Some "0")
    (P.json_field "pending" resp);
  let resp, _ = Engine.handle_line e "STATS" in
  Alcotest.(check bool) "stats ok" true (P.json_ok resp);
  let resp, _ = Engine.handle_line e "QUERY max h1 nope" in
  Alcotest.(check bool) "unknown instance rejected" false (P.json_ok resp);
  let resp, _ = Engine.handle_line e "NONSENSE" in
  Alcotest.(check bool) "malformed line answered" false (P.json_ok resp);
  let _, act = Engine.handle_line e "QUIT" in
  Alcotest.(check bool) "quit closes" true (act = Engine.Close);
  let _, act = Engine.handle_line e "SHUTDOWN" in
  Alcotest.(check bool) "shutdown stops" true (act = Engine.Stop);
  let resp, act = Engine.handle_line e "HELLO 1" in
  Alcotest.(check bool) "hello ok" true (P.json_ok resp);
  Alcotest.(check bool) "hello continues" true (act = Engine.Continue)

let float_field_exn msg field line =
  match P.json_float_field field line with
  | Some v -> v
  | None -> Alcotest.failf "%s: field %s missing in %s" msg field line

(* The machine-derived OR table under order^(L) must reproduce the
   closed-form OR^(L) estimate (that is what order_l encodes). *)
let test_engine_or_designer_matches_closed_form () =
  let st = populated_store () in
  let e = Engine.create st in
  match Engine.query e P.Or [ "h1"; "h2" ] with
  | Error m -> Alcotest.failf "or query: %s" m
  | Ok resp ->
      Alcotest.(check (option string)) "designer provenance"
        (Some "designer")
        (P.json_field "provenance" resp);
      let est = float_field_exn "or" "estimate" resp in
      let closed = float_field_exn "or" "closed_form" resp in
      check_float "table equals closed form" closed est;
      Alcotest.(check (option string)) "no degradations" (Some "0")
        (P.json_field "degradations" resp)

(* The engine now serves [QUERY or] through the flattened 16-cell
   Or_weighted table. The flat walk must return the same bits as the
   hashtable oracle it replaced, on every (ids, sampled-sets) shape —
   and its per-key reads must allocate nothing. *)
let test_engine_or_flat_matches_table () =
  let p1 = 0.4 and p2 = 0.7 in
  match Engine.or_flat_tables ~p1 ~p2 with
  | Error m -> Alcotest.failf "derive: %s" m
  | Ok (table, flat) ->
      List.iter
        (fun master ->
          let seeds =
            Sampling.Seeds.create ~master Sampling.Seeds.Independent
          in
          List.iter
            (fun ((id1, id2) as ids) ->
              (* Well-formed binary outcomes only: key h is sampled in an
                 instance iff its value there is 1 AND its recomputed seed
                 is below p — the oracle's table has no rows for anything
                 else (and the engine can never produce anything else). *)
              let keys = List.init 12 (fun i -> i + 1) in
              let sampled id p v1 =
                List.filter
                  (fun h ->
                    v1 h
                    && Sampling.Seeds.seed seeds ~instance:id ~key:h <= p)
                  keys
              in
              let s1 = sampled id1 p1 (fun h -> h mod 2 = 0) in
              let s2 = sampled id2 p2 (fun h -> h mod 3 <> 0) in
              List.iter
                (fun (s1, s2) ->
                  let oracle =
                    Engine.eval_or_table table seeds ~ids ~p1 ~p2 ~s1 ~s2
                  in
                  let served =
                    Engine.eval_or_flat flat seeds ~ids ~p1 ~p2 ~s1 ~s2
                  in
                  if Int64.bits_of_float oracle <> Int64.bits_of_float served
                  then
                    Alcotest.failf
                      "flat OR serving differs: oracle %.17g vs flat %.17g"
                      oracle served)
                [ ([], []); (s1, []); ([], s2); (s1, s2) ])
            [ (0, 1); (3, 8) ])
        [ 7; 11; 13 ];
      let acc = Float.Array.make 1 0. in
      let code =
        Estcore.Or_weighted.Table.code ~b0:true ~b1:false ~s0:true ~s1:false
      in
      Allocheck.assert_no_alloc "Or_weighted.Table.eval_into" (fun () ->
          Estcore.Or_weighted.Table.eval_into flat ~code ~dst:acc ~di:0);
      Allocheck.assert_no_alloc "Or_weighted.Table.add_into" (fun () ->
          Estcore.Or_weighted.Table.add_into flat ~code acc)

(* Regression: [Sum_agg.key_outcome] must recompute seeds at the
   samples' recorded instance ids, not their array positions — live
   server instances are not numbered 0..r-1. *)
let test_sum_agg_recorded_ids () =
  let seeds = Sampling.Seeds.create ~master:31 Sampling.Seeds.Independent in
  let a = I.of_assoc [ (1, 50.); (2, 3.); (5, 20.) ] in
  let b = I.of_assoc [ (1, 8.); (3, 45.); (5, 12.) ] in
  let tau = 25. in
  let ps =
    {
      Aggregates.Sum_agg.seeds;
      taus = [| tau; tau |];
      samples =
        [|
          Sampling.Poisson.pps_sample seeds ~instance:3 ~tau a;
          Sampling.Poisson.pps_sample seeds ~instance:7 ~tau b;
        |];
    }
  in
  List.iter
    (fun h ->
      let o = Aggregates.Sum_agg.key_outcome ps h in
      check_float ~eps:0. "seed recomputed at id 3"
        (Sampling.Seeds.seed seeds ~instance:3 ~key:h)
        o.Sampling.Outcome.Pps.seeds.(0);
      check_float ~eps:0. "seed recomputed at id 7"
        (Sampling.Seeds.seed seeds ~instance:7 ~key:h)
        o.Sampling.Outcome.Pps.seeds.(1))
    (I.union_keys [ a; b ])

(* ------------------------------------------------------------------ *)
(* Similarity queries (the Monotone L* engine behind QUERY jaccard/...) *)
(* ------------------------------------------------------------------ *)

let shared_store () =
  let st =
    Store.create
      {
        Store.default_config with
        master = 808;
        flush_every = 1024;
        mode = Sampling.Seeds.Shared;
      }
  in
  ignore (create_exn st ~name:"h1" ~tau:40. ~k:16 ~p:0.3 ());
  ignore (create_exn st ~name:"h2" ~tau:60. ~k:16 ~p:0.2 ());
  feed_random st ~names:[ "h1"; "h2" ] ~records:2000 ~keys:250 ~seed:23;
  Store.flush st;
  st

(* The served estimates must equal the reference Similarity.sums run on
   the store's own samples — the engine's flat path is just a faster
   spelling of that sum. *)
let test_engine_similarity_queries () =
  let st = shared_store () in
  let e = Engine.create st in
  let insts =
    List.map
      (fun n ->
        match Store.find st n with
        | Some i -> i
        | None -> Alcotest.failf "instance %s missing" n)
      [ "h1"; "h2" ]
  in
  let ps =
    {
      Aggregates.Sum_agg.seeds = Store.seeds st;
      taus =
        Array.of_list
          (List.map (fun i -> (Store.instance_config i).Store.tau) insts);
      samples = Array.of_list (List.map Store.pps_sample insts);
    }
  in
  let s = Aggregates.Similarity.sums ps ~select:(fun _ -> true) in
  Alcotest.(check bool) "data produces a real union" true
    (s.Aggregates.Similarity.union_hat > 0.);
  List.iter
    (fun (kind, name, expected) ->
      match Engine.query e kind [ "h1"; "h2" ] with
      | Error m -> Alcotest.failf "%s query: %s" name m
      | Ok resp ->
          Alcotest.(check (option string))
            (name ^ " estimator name")
            (Some (name ^ "-lstar"))
            (P.json_field "estimator" resp);
          check_float ~eps:0.
            (name ^ " equals reference sums")
            expected
            (float_field_exn name "estimate" resp);
          check_float ~eps:0. (name ^ " union field")
            s.Aggregates.Similarity.union_hat
            (float_field_exn name "union" resp);
          check_float ~eps:0.
            (name ^ " intersection field")
            s.Aggregates.Similarity.inter_hat
            (float_field_exn name "intersection" resp))
    [
      (P.Union, "union", s.Aggregates.Similarity.union_hat);
      (P.Intersection, "intersection", s.Aggregates.Similarity.inter_hat);
      (P.Jaccard, "jaccard", Aggregates.Similarity.jaccard s);
      (P.L1, "l1", Aggregates.Similarity.l1 s);
    ]

(* Every refusal on the similarity path is a structured bad_request: the
   independent-seed store (where the estimate would be silently biased),
   the wrong l1 arity, unknown instances, and unknown query kinds at the
   parse layer. None of them may drop the session. *)
let test_engine_similarity_guards () =
  let bad_request resp =
    Alcotest.(check bool) "answered not-ok" false (P.json_ok resp);
    Alcotest.(check (option string)) "kind is bad_request"
      (Some "bad_request")
      (P.json_field "kind" resp)
  in
  let indep = Engine.create (populated_store ()) in
  let resp, act = Engine.handle_line indep "QUERY jaccard h1 h2" in
  bad_request resp;
  Alcotest.(check bool) "session continues" true (act = Engine.Continue);
  let shared = Engine.create (shared_store ()) in
  (match Engine.query shared P.Jaccard [ "h1"; "h2" ] with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shared-store jaccard refused: %s" m);
  let resp, _ = Engine.handle_line shared "QUERY l1 h1 h2 h1" in
  bad_request resp;
  let resp, _ = Engine.handle_line shared "QUERY union h1 nope" in
  bad_request resp;
  let resp, _ = Engine.handle_line shared "QUERY frobnicate h1 h2" in
  bad_request resp;
  let resp, _ = Engine.handle_line shared "NONSENSE" in
  bad_request resp

(* ------------------------------------------------------------------ *)
(* End to end: daemon + client over TCP                                *)
(* ------------------------------------------------------------------ *)

let request_exn c line =
  match Server.Client.request c line with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "request %S: %s" line m

let ok_exn c line =
  let resp = request_exn c line in
  if not (P.json_ok resp) then
    Alcotest.failf "request %S answered %s" line resp;
  resp

let e2e_params =
  { Workload.Traffic.default with n_shared = 4000; n_only = 2000; seed = 71 }

let e2e_master = 4242
let e2e_tau = 500.
let e2e_p = 0.2

(* Batch reference answers: materialize the same two hours, sample them
   with the same recorded seeds, and run the offline pipeline. *)
let batch_reference () =
  let a =
    Workload.Traffic.Stream.to_instance
      (Workload.Traffic.Stream.create ~hour:1 e2e_params)
  in
  let b =
    Workload.Traffic.Stream.to_instance
      (Workload.Traffic.Stream.create ~hour:2 e2e_params)
  in
  let seeds =
    Sampling.Seeds.create ~master:e2e_master Sampling.Seeds.Independent
  in
  let ps =
    {
      Aggregates.Sum_agg.seeds;
      taus = [| e2e_tau; e2e_tau |];
      samples =
        [|
          Sampling.Poisson.pps_sample seeds ~instance:0 ~tau:e2e_tau a;
          Sampling.Poisson.pps_sample seeds ~instance:1 ~tau:e2e_tau b;
        |];
    }
  in
  let select = fun (_ : int) -> true in
  let max_l =
    Aggregates.Sum_agg.estimate ps ~est:Estcore.Max_pps.l ~select
  in
  let s1 = Aggregates.Distinct.sample_binary seeds ~p:e2e_p ~instance:0 a in
  let s2 = Aggregates.Distinct.sample_binary seeds ~p:e2e_p ~instance:1 b in
  let classes =
    Aggregates.Distinct.classify seeds ~p1:e2e_p ~p2:e2e_p ~s1 ~s2 ~select
  in
  let distinct_l =
    Aggregates.Distinct.l_estimate classes ~p1:e2e_p ~p2:e2e_p
  in
  (max_l, distinct_l)

let test_e2e_daemon () =
  let st =
    Store.create
      { Store.default_config with master = e2e_master; flush_every = 4096 }
  in
  let daemon = Server.Daemon.start (Engine.create st) in
  let connect () =
    match Server.Client.connect_tcp ~port:(Server.Daemon.port daemon) () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  let c = connect () in
  ignore (ok_exn c "HELLO 1");
  let create_line name =
    Printf.sprintf "CREATE %s tau=%g k=256 p=%g" name e2e_tau e2e_p
  in
  ignore (ok_exn c (create_line "h1"));
  ignore (ok_exn c (create_line "h2"));
  (* A malformed line and a bad ingest answer with errors and leave the
     session usable. *)
  Alcotest.(check bool) "malformed line answered" false
    (P.json_ok (request_exn c "NONSENSE"));
  Alcotest.(check bool) "bad weight rejected" false
    (P.json_ok (request_exn c "INGEST h1 1 -3"));
  (* Replay both hours — 12,000 records across the two instances. *)
  let ingest name stream =
    Workload.Traffic.Stream.fold
      (fun n ~key ~weight ->
        ignore (ok_exn c (Printf.sprintf "INGEST %s %d %.17g" name key weight));
        n + 1)
      0 stream
  in
  let n1 = ingest "h1" (Workload.Traffic.Stream.create ~hour:1 e2e_params) in
  let n2 = ingest "h2" (Workload.Traffic.Stream.create ~hour:2 e2e_params) in
  Alcotest.(check bool) "at least 10k records" true (n1 + n2 >= 10_000);
  let q_max = ok_exn c "QUERY max h1 h2" in
  let q_or = ok_exn c "QUERY or h1 h2" in
  let q_distinct = ok_exn c "QUERY distinct h1 h2" in
  let max_l, distinct_l = batch_reference () in
  check_float "server max equals batch pipeline" max_l
    (float_field_exn "max" "estimate" q_max);
  check_float "server or equals batch pipeline" distinct_l
    (float_field_exn "or" "estimate" q_or);
  check_float "server distinct equals batch pipeline" distinct_l
    (float_field_exn "distinct" "estimate" q_distinct);
  let stats = ok_exn c "STATS" in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec find i =
      i + n <= h && (String.sub hay i n = needle || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "stats mentions both instances" true
    (contains "\"h1\"" stats && contains "\"h2\"" stats);
  (* Snapshot, stop the daemon, reload warm, and re-query: answers must
     be identical. *)
  let path = Filename.temp_file "daemon" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore (ok_exn c ("SNAPSHOT " ^ path));
      ignore (ok_exn c "SHUTDOWN");
      Server.Client.close c;
      Server.Daemon.join daemon;
      let st2 =
        match Snapshot.load path with
        | Ok st2 -> st2
        | Error e -> Alcotest.failf "reload: %s" e.Sampling.Io.message
      in
      let daemon2 = Server.Daemon.start (Engine.create st2) in
      let c2 =
        match
          Server.Client.connect_tcp ~port:(Server.Daemon.port daemon2) ()
        with
        | Ok c2 -> c2
        | Error m -> Alcotest.failf "reconnect: %s" m
      in
      List.iter
        (fun (q, before) ->
          Alcotest.(check string)
            (q ^ " identical after warm restart")
            before (ok_exn c2 q))
        [ ("QUERY max h1 h2", q_max); ("QUERY or h1 h2", q_or);
          ("QUERY distinct h1 h2", q_distinct) ];
      ignore (ok_exn c2 "SHUTDOWN");
      Server.Client.close c2;
      Server.Daemon.join daemon2)

(* ------------------------------------------------------------------ *)
(* Event loop: concurrency, backpressure, batching                     *)
(* ------------------------------------------------------------------ *)

(* 64 concurrent connections (8 domains x 8 sockets, interleaved at the
   select loop) must leave the store bit-identical to one sequential
   client replaying the same per-connection streams: every connection
   owns its instance, so per-instance arrival order — the only order
   that matters — is fixed by construction, and the event loop must not
   corrupt, drop or cross-deliver a single line. *)
let test_e2e_concurrent_identical () =
  let n_conns = 64 and n_domains = 8 and per_conn = 120 in
  let stream cid =
    let rng = Numerics.Prng.create ~seed:(900 + cid) () in
    Array.init per_conn (fun _ ->
        (1 + Numerics.Prng.int rng 512, 0.25 +. (Numerics.Prng.float rng *. 8.)))
  in
  let run ~concurrent =
    let st =
      Store.create
        { Store.default_config with master = 77; flush_every = 4096 }
    in
    let daemon = Server.Daemon.start (Engine.create st) in
    let port = Server.Daemon.port daemon in
    let connect () =
      match Server.Client.connect_tcp ~port () with
      | Ok c -> c
      | Error m -> Alcotest.failf "connect: %s" m
    in
    (* Instance ids are assigned in creation order, so all creation goes
       through one setup connection before any traffic. *)
    let setup = connect () in
    for cid = 0 to n_conns - 1 do
      ignore
        (ok_exn setup (Printf.sprintf "CREATE c%d tau=200 k=64 p=0.15" cid))
    done;
    let send c cid (key, weight) =
      ignore (ok_exn c (Printf.sprintf "INGEST c%d %d %h" cid key weight))
    in
    (if concurrent then
       let worker d () =
         let width = n_conns / n_domains in
         let conns =
           List.init width (fun j ->
               let cid = (d * width) + j in
               (connect (), cid, stream cid))
         in
         for r = 0 to per_conn - 1 do
           List.iter (fun (c, cid, recs) -> send c cid recs.(r)) conns
         done;
         List.iter
           (fun (c, _, _) ->
             ignore (ok_exn c "QUIT");
             Server.Client.close c)
           conns
       in
       List.init n_domains (fun d -> Domain.spawn (worker d))
       |> List.iter Domain.join
     else
       for cid = 0 to n_conns - 1 do
         let c = connect () in
         Array.iter (send c cid) (stream cid);
         ignore (ok_exn c "QUIT");
         Server.Client.close c
       done);
    ignore (ok_exn setup "FLUSH");
    let answers =
      List.init (n_conns / 2) (fun i ->
          ok_exn setup
            (Printf.sprintf "QUERY max c%d c%d" (2 * i) ((2 * i) + 1)))
    in
    ignore (ok_exn setup "SHUTDOWN");
    Server.Client.close setup;
    Server.Daemon.join daemon;
    answers
  in
  Alcotest.(check (list string))
    "64 concurrent connections bit-identical to sequential"
    (run ~concurrent:false) (run ~concurrent:true)

(* A reader that stops draining its socket must not stall anyone else:
   once its queued responses cross the high-water mark the loop parks
   that connection (stops reading more requests from it) while other
   sessions keep getting answers — and every queued response is still
   delivered, in order, when the slow reader catches up. *)
let test_e2e_slow_reader_backpressure () =
  let st =
    Store.create { Store.default_config with master = 5; flush_every = 4096 }
  in
  let config =
    { Server.Daemon.default_config with Server.Daemon.write_highwater = 2048 }
  in
  let daemon = Server.Daemon.start ~config (Engine.create st) in
  let port = Server.Daemon.port daemon in
  let setup =
    match Server.Client.connect_tcp ~port () with
    | Ok c -> c
    | Error m -> Alcotest.failf "connect: %s" m
  in
  (* Enough instances that one STATS response dwarfs the high-water
     mark. *)
  for i = 1 to 48 do
    ignore (ok_exn setup (Printf.sprintf "CREATE s%d tau=50 k=16 p=0.2" i))
  done;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let slow = P.Conn.of_fd fd in
  (match P.Conn.input_line_opt slow with
  | Some g when P.json_ok g -> ()
  | _ -> Alcotest.fail "greeting");
  let n_requests = 400 in
  for _ = 1 to n_requests do
    P.Conn.output_line slow "STATS"
  done;
  (* The slow reader's responses are now queued (kernel buffers plus the
     daemon's bounded write queue); a well-behaved session still gets
     every answer. *)
  for _ = 1 to 25 do
    ignore (ok_exn setup "STATS")
  done;
  (* Catching up delivers every queued response, none dropped or torn. *)
  for i = 1 to n_requests do
    match P.Conn.input_line_opt slow with
    | Some resp when P.json_ok resp -> ()
    | Some resp -> Alcotest.failf "response %d not ok: %s" i resp
    | None -> Alcotest.failf "connection dropped after %d responses" (i - 1)
  done;
  ignore (ok_exn setup "SHUTDOWN");
  P.Conn.close slow;
  Server.Client.close setup;
  Server.Daemon.join daemon

(* Batched and line-at-a-time ingest land bit-identical state: same
   records, same arrival order, one frame vs many. Covers chunking too —
   the stream is longer than Protocol.max_batch. *)
let test_e2e_client_batch_identical () =
  let n_records = (2 * P.max_batch) + 300 in
  let recs seed =
    let rng = Numerics.Prng.create ~seed () in
    Array.init n_records (fun _ ->
        (1 + Numerics.Prng.int rng 1024, 0.5 +. (Numerics.Prng.float rng *. 20.)))
  in
  let run ~batched =
    let st =
      Store.create
        { Store.default_config with master = 909; flush_every = 8192 }
    in
    let daemon = Server.Daemon.start (Engine.create st) in
    let c =
      match Server.Client.connect_tcp ~port:(Server.Daemon.port daemon) () with
      | Ok c -> c
      | Error m -> Alcotest.failf "connect: %s" m
    in
    List.iter
      (fun name ->
        ignore (ok_exn c (Printf.sprintf "CREATE %s tau=300 k=96 p=0.1" name)))
      [ "a"; "b" ];
    List.iter
      (fun (name, seed) ->
        if batched then begin
          match Server.Client.ingest_many c ~name (recs seed) with
          | Ok resp ->
              if not (P.json_ok resp) then
                Alcotest.failf "ingest_many answered %s" resp;
              Alcotest.(check (option string)) "total ingested reported"
                (Some (string_of_int n_records))
                (P.json_field "ingested" resp)
          | Error m -> Alcotest.failf "ingest_many: %s" m
        end
        else
          Array.iter
            (fun (key, weight) ->
              ignore
                (ok_exn c (Printf.sprintf "INGEST %s %d %h" name key weight)))
            (recs seed))
      [ ("a", 31); ("b", 32) ];
    ignore (ok_exn c "FLUSH");
    let answers =
      List.map
        (fun q -> ok_exn c (Printf.sprintf "QUERY %s a b" q))
        [ "max"; "or"; "distinct"; "dominance" ]
    in
    ignore (ok_exn c "SHUTDOWN");
    Server.Client.close c;
    Server.Daemon.join daemon;
    answers
  in
  Alcotest.(check (list string)) "batched ingest bit-identical to lines"
    (run ~batched:false) (run ~batched:true)

(* The daemon's INGESTN rejection points at the offending body line by
   number — and the whole batch is refused (all-or-nothing), leaving the
   session usable. *)
let test_e2e_batch_line_diagnostic () =
  let st =
    Store.create { Store.default_config with master = 13; flush_every = 4096 }
  in
  let daemon = Server.Daemon.start (Engine.create st) in
  let port = Server.Daemon.port daemon in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let conn = P.Conn.of_fd fd in
  (match P.Conn.input_line_opt conn with
  | Some g when P.json_ok g -> ()
  | _ -> Alcotest.fail "greeting");
  let roundtrip line =
    P.Conn.output_line conn line;
    match P.Conn.input_line_opt conn with
    | Some resp -> resp
    | None -> Alcotest.fail "connection dropped"
  in
  if not (P.json_ok (roundtrip "CREATE h1 tau=50 k=16 p=0.2")) then
    Alcotest.fail "create failed";
  (* Third body line is bad: the response must say "line 3". *)
  P.Conn.output_line conn "INGESTN h1 4";
  P.Conn.output_line conn "1 0x1p0";
  P.Conn.output_line conn "2 0x1p0";
  P.Conn.output_line conn "3 nan";
  let resp = roundtrip "4 0x1p0" in
  Alcotest.(check bool) "bad batch rejected" false (P.json_ok resp);
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec find i = i + n <= h && (String.sub hay i n = needle || find (i + 1)) in
    find 0
  in
  Alcotest.(check bool) "diagnostic names body line 3" true
    (contains "line 3" resp);
  (* Nothing of the batch landed, and the session still works. *)
  let stats = roundtrip "STATS" in
  Alcotest.(check bool) "stats ok after rejected batch" true (P.json_ok stats);
  Alcotest.(check bool) "no record admitted from the bad batch" true
    (contains "\"records\":0" stats);
  ignore (roundtrip "SHUTDOWN");
  P.Conn.close conn;
  Server.Daemon.join daemon

(* Regression: an unknown verb or query kind over the wire must be
   answered with a structured bad_request on the same connection — a
   typo must not cost the session. *)
let test_e2e_unknown_verb_keeps_connection () =
  let st =
    Store.create { Store.default_config with master = 21; flush_every = 4096 }
  in
  let daemon = Server.Daemon.start (Engine.create st) in
  let port = Server.Daemon.port daemon in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let conn = P.Conn.of_fd fd in
  (match P.Conn.input_line_opt conn with
  | Some g when P.json_ok g -> ()
  | _ -> Alcotest.fail "greeting");
  let roundtrip line =
    P.Conn.output_line conn line;
    match P.Conn.input_line_opt conn with
    | Some resp -> resp
    | None -> Alcotest.failf "connection dropped after %S" line
  in
  if not (P.json_ok (roundtrip "CREATE h1 tau=50 k=16 p=0.2")) then
    Alcotest.fail "create failed";
  List.iter
    (fun line ->
      let resp = roundtrip line in
      Alcotest.(check bool) (line ^ " answered not-ok") false (P.json_ok resp);
      Alcotest.(check (option string)) (line ^ " kind") (Some "bad_request")
        (P.json_field "kind" resp))
    [ "FROBNICATE now"; "QUERY frobnicate h1"; "QUERY jaccard h1 h1" ];
  (* jaccard above: independent-seed store — same structured refusal. *)
  let stats = roundtrip "STATS" in
  Alcotest.(check bool) "session still serves after bad requests" true
    (P.json_ok stats);
  ignore (roundtrip "SHUTDOWN");
  P.Conn.close conn;
  Server.Daemon.join daemon

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "parse errors" `Quick test_protocol_parse_errors;
          Alcotest.test_case "json assembly and inspection" `Quick
            test_protocol_json;
          Alcotest.test_case "batch payload framing" `Quick
            test_protocol_batch_framing;
          Alcotest.test_case "batch diagnostics carry line numbers" `Quick
            test_protocol_batch_line_numbers;
          Alcotest.test_case "retry hint validation and clamping" `Quick
            test_client_hint_clamping;
        ] );
      ( "store",
        [
          Alcotest.test_case "incremental summaries equal batch samplers"
            `Quick test_store_incremental_matches_batch;
          Alcotest.test_case "ingest guards" `Quick test_store_ingest_guards;
          Alcotest.test_case "auto flush" `Quick test_store_auto_flush;
          Alcotest.test_case "batch ingest bit-identical to singles" `Quick
            test_store_ingest_many;
          Alcotest.test_case "batch admission all-or-nothing" `Quick
            test_store_ingest_many_guards;
          Alcotest.test_case "bit-identical across 1/2/4 shards" `Slow
            test_store_shard_determinism;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "byte round trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "re-query identical" `Quick
            test_snapshot_requery_identical;
          Alcotest.test_case "strict parser guards" `Quick
            test_snapshot_guards;
          Alcotest.test_case "header validated like CREATE" `Quick
            test_snapshot_header_validation;
          Alcotest.test_case "file write and load" `Quick
            test_snapshot_file_io;
        ] );
      ( "engine",
        [
          Alcotest.test_case "session verbs" `Quick test_engine_session_verbs;
          Alcotest.test_case "or table equals closed form" `Quick
            test_engine_or_designer_matches_closed_form;
          Alcotest.test_case "flat OR serving bit-identical + alloc-free"
            `Quick test_engine_or_flat_matches_table;
          Alcotest.test_case "sum_agg recomputes seeds at recorded ids"
            `Quick test_sum_agg_recorded_ids;
          Alcotest.test_case "similarity queries equal reference sums" `Quick
            test_engine_similarity_queries;
          Alcotest.test_case "similarity refusals are structured bad_request"
            `Quick test_engine_similarity_guards;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "daemon over tcp" `Slow test_e2e_daemon;
          Alcotest.test_case "64 concurrent connections bit-identical" `Slow
            test_e2e_concurrent_identical;
          Alcotest.test_case "slow reader does not stall others" `Quick
            test_e2e_slow_reader_backpressure;
          Alcotest.test_case "batched client bit-identical to lines" `Slow
            test_e2e_client_batch_identical;
          Alcotest.test_case "batch rejection names the body line" `Quick
            test_e2e_batch_line_diagnostic;
          Alcotest.test_case "unknown verbs answer bad_request, keep session"
            `Quick test_e2e_unknown_verb_keeps_connection;
        ] );
    ]
