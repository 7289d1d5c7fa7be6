(* Append-only op log of mutating requests, composing with
   Server.Snapshot: a checkpoint file is a full snapshot (every
   instance's exact summary, restored bit for bit), the WAL holds the
   delta since — so checkpoint ∘ delta recovery equals an uninterrupted
   run on every field, STATS included. Frames are length-prefixed and
   CRC-guarded so replay detects torn tails (tolerated on the final
   segment only — that is what a crash produces) and flags mid-log
   corruption (never silent).

   On-disk layout, all under [config.dir]:

     checkpoint-<epoch>.snap    Server.Snapshot.write, atomic
     wal-<epoch>-<seq>.log      frames appended after checkpoint <epoch>

   [checkpoint] bumps the epoch; the previous checkpoint and its
   segments are kept one generation back, so recovery can fall back to
   [epoch - 1] + both epochs' segments when the newest checkpoint file
   is damaged. *)

type fsync_policy = Always | Interval of int | Never

let fsync_policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
      let n =
        match String.index_opt s '=' with
        | Some i when String.sub s 0 i = "interval" ->
            String.sub s (i + 1) (String.length s - i - 1)
        | _ -> s
      in
      match Protocol.int_tok "interval" n with
      | Ok n when n > 0 -> Ok (Interval n)
      | _ ->
          Error
            (Printf.sprintf
               "bad fsync policy %S (expected always, never or interval=N)" s))

type config = { dir : string; fsync : fsync_policy; segment_bytes : int }

let default_config ~dir = { dir; fsync = Always; segment_bytes = 1 lsl 22 }

type op =
  | Create of { name : string; tau : float; k : int; p : float }
  | Ingest of { name : string; key : int; weight : float }
  | Ingest_batch of { name : string; records : (int * float) array }
  | Flush

(* --- op payloads (text, floats as lossless hex literals) --- *)

let encode_op = function
  | Create { name; tau; k; p } -> Printf.sprintf "C %s %h %d %h" name tau k p
  | Ingest { name; key; weight } -> Printf.sprintf "I %s %d %h" name key weight
  | Ingest_batch { name; records } ->
      (* One frame per batch — this is the group commit: one append, one
         [maybe_sync], however many records the batch carries. Sized by
         Protocol.max_batch to always fit [max_payload]. *)
      let buf = Buffer.create (16 + (24 * Array.length records)) in
      Buffer.add_string buf
        (Printf.sprintf "B %s %d" name (Array.length records));
      Array.iter
        (fun (key, weight) ->
          Buffer.add_string buf (Printf.sprintf " %d %h" key weight))
        records;
      Buffer.contents buf
  | Flush -> "F"

let decode_op payload =
  let tokens =
    String.split_on_char ' ' payload |> List.filter (fun t -> t <> "")
  in
  match tokens with
  | [ "C"; name; tau; k; p ] when Protocol.valid_name name ->
      Result.bind (Protocol.float_tok "tau" tau) (fun tau ->
          Result.bind (Protocol.int_tok "k" k) (fun k ->
              Result.bind (Protocol.float_tok "p" p) (fun p ->
                  Ok (Create { name; tau; k; p }))))
  | [ "I"; name; key; weight ] when Protocol.valid_name name ->
      Result.bind (Protocol.int_tok "key" key) (fun key ->
          Result.bind (Protocol.pos_float_tok "weight" weight) (fun weight ->
              Ok (Ingest { name; key; weight })))
  | "B" :: name :: count :: rest when Protocol.valid_name name ->
      Result.bind (Protocol.int_tok "record count" count) (fun count ->
          if count < 1 || List.length rest <> 2 * count then
            Error
              (Printf.sprintf
                 "batch op declares %d records but carries %d tokens" count
                 (List.length rest))
          else
            let records = Array.make count (0, 0.) in
            let rec fill i = function
              | [] -> Ok (Ingest_batch { name; records })
              | key :: weight :: rest ->
                  Result.bind (Protocol.int_tok "key" key) (fun key ->
                      Result.bind (Protocol.pos_float_tok "weight" weight)
                        (fun weight ->
                          records.(i) <- (key, weight);
                          fill (i + 1) rest))
              | [ _ ] -> Error "odd batch token count"
            in
            fill 0 rest)
  | [ "F" ] -> Ok Flush
  | _ -> Error (Printf.sprintf "unrecognized op payload %S" payload)

(* --- frames: [len:int32le][crc32(payload):int32le][payload] --- *)

let max_payload = 1 lsl 16

let encode_frame op =
  let payload = encode_op op in
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Durable.crc32 payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.unsafe_to_string b

type decoded = Frame of op * int | End | Torn of string

let decode_at s pos =
  let n = String.length s in
  if pos >= n then End
  else if n - pos < 8 then Torn "truncated frame header"
  else
    let len = Int32.to_int (String.get_int32_le s pos) in
    if len < 0 || len > max_payload then
      Torn (Printf.sprintf "implausible frame length %d" len)
    else if n - pos - 8 < len then Torn "truncated frame payload"
    else
      let payload = String.sub s (pos + 8) len in
      if Durable.crc32 payload <> String.get_int32_le s (pos + 4) then
        Torn "frame CRC mismatch"
      else
        match decode_op payload with
        | Ok op -> Frame (op, pos + 8 + len)
        | Error m -> Torn m

(* --- file naming --- *)

let checkpoint_path dir epoch = Filename.concat dir (Printf.sprintf "checkpoint-%06d.snap" epoch)
let segment_path dir epoch seq = Filename.concat dir (Printf.sprintf "wal-%06d-%06d.log" epoch seq)

let scan_int name ~prefix ~suffix =
  let pl = String.length prefix and sl = String.length suffix in
  let n = String.length name in
  if n > pl + sl && String.sub name 0 pl = prefix && String.sub name (n - sl) sl = suffix
  then
    Result.to_option
      (Protocol.int_tok prefix (String.sub name pl (n - pl - sl)))
  else None

let scan_checkpoint name = scan_int name ~prefix:"checkpoint-" ~suffix:".snap"

(* "wal-EEEEEE-SSSSSS.log" -> (epoch, seq) *)
let scan_segment name =
  let n = String.length name in
  if n = 4 + 6 + 1 + 6 + 4 && String.sub name 0 4 = "wal-" && name.[10] = '-'
     && String.sub name (n - 4) 4 = ".log"
  then
    match
      (Protocol.int_tok "epoch" (String.sub name 4 6),
       Protocol.int_tok "seq" (String.sub name 11 6))
    with
    | Ok e, Ok s when e >= 0 && s >= 0 -> Some (e, s)
    | _ -> None
  else None

(* --- the live log handle --- *)

type t = {
  cfg : config;
  mutable epoch : int;
  mutable seq : int;
  mutable writer : Durable.writer;
  mutable unsynced : int;  (* appends since the last fsync (Interval) *)
}

let segment t = Durable.path t.writer

let ( let* ) = Result.bind

let open_segment cfg ~epoch ~seq = Durable.openw ~path:(segment_path cfg.dir epoch seq)

let sync_now t =
  t.unsynced <- 0;
  Durable.fsync ~site:"wal.fsync" t.writer

let maybe_sync t =
  match t.cfg.fsync with
  | Always -> sync_now t
  | Never -> Ok ()
  | Interval n ->
      t.unsynced <- t.unsynced + 1;
      if t.unsynced >= n then sync_now t else Ok ()

let rotate t =
  (* Seal the full segment (durably under Always/Interval) and start the
     next one in the same epoch. *)
  let* () = if t.cfg.fsync = Never then Ok () else sync_now t in
  Durable.close t.writer;
  let* w = open_segment t.cfg ~epoch:t.epoch ~seq:(t.seq + 1) in
  t.seq <- t.seq + 1;
  t.writer <- w;
  t.unsynced <- 0;
  Ok ()

let append t op =
  Numerics.Obs.count "server.wal.append";
  let* () = Durable.append ~site:"wal.append" t.writer (encode_frame op) in
  let* () = maybe_sync t in
  if Durable.offset t.writer >= t.cfg.segment_bytes then rotate t else Ok ()

let close t =
  (match t.cfg.fsync with Never -> () | _ -> ignore (sync_now t));
  Durable.close t.writer

(* --- checkpointing --- *)

let list_dir dir = try Sys.readdir dir with Sys_error _ -> [||]

let prune_below dir keep_epoch =
  Array.iter
    (fun name ->
      let stale =
        match scan_checkpoint name with
        | Some e -> e < keep_epoch
        | None -> (
            match scan_segment name with Some (e, _) -> e < keep_epoch | None -> false)
      in
      if stale then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    (list_dir dir)

let checkpoint t store =
  Numerics.Obs.span ~cat:"server" "server.wal.checkpoint" @@ fun () ->
  let new_epoch = t.epoch + 1 in
  let* (_ : int) =
    Snapshot.write store ~path:(checkpoint_path t.cfg.dir new_epoch)
  in
  (* The checkpoint is durable; everything before it is redundant. Seal
     the old epoch's segment and open the new epoch's first one. *)
  let* () = if t.cfg.fsync = Never then Ok () else sync_now t in
  Durable.close t.writer;
  let* w = open_segment t.cfg ~epoch:new_epoch ~seq:0 in
  t.epoch <- new_epoch;
  t.seq <- 0;
  t.writer <- w;
  t.unsynced <- 0;
  (* Keep one generation of fallback: checkpoint [new_epoch - 1] and the
     segments recorded under it. *)
  prune_below t.cfg.dir (new_epoch - 1);
  Ok new_epoch

(* --- recovery --- *)

type recovery = {
  store : Store.t;
  wal : t;
  checkpoint_epoch : int option;  (* [None]: cold start, no usable checkpoint *)
  replayed : int;  (* ops re-applied from segments *)
  truncated_bytes : int;  (* torn tail dropped from the final segment *)
  skipped_checkpoints : string list;  (* quarantined as [.corrupt] *)
}

let quarantine path =
  let dst = path ^ ".corrupt" in
  (try Unix.rename path dst with Unix.Unix_error _ -> ());
  dst

let apply_op store op =
  (* Replay outruns the drain: flush and retry — shedding during
     recovery would silently drop acknowledged records. *)
  let ingest f =
    Result.map_error Store.ingest_error_to_string
      (match f () with
      | Error (Store.Overloaded _) ->
          Store.flush store;
          f ()
      | r -> r)
  in
  match op with
  | Create { name; tau; k; p } ->
      let* (_ : Store.instance) = Store.create_instance store ~name ~tau ~k ~p () in
      Ok ()
  | Ingest { name; key; weight } ->
      ingest (fun () -> Store.ingest store ~name ~key ~weight)
  | Ingest_batch { name; records } ->
      ingest (fun () -> Store.ingest_many store ~name ~records)
  | Flush ->
      Store.flush store;
      Ok ()

(* Replay one segment's frames into the store. A malformed suffix is
   fine on the final segment — that is exactly the torn tail a crash
   leaves — and the file is physically truncated back to the last good
   frame so subsequent appends produce a clean log. Anywhere else it is
   corruption and recovery refuses to guess. *)
let replay_segment store ~is_last path =
  let* data = Durable.read_file path in
  let rec go pos count =
    match decode_at data pos with
    | End -> Ok (count, 0)
    | Frame (op, next) ->
        let* () =
          Result.map_error
            (fun m -> Printf.sprintf "%s: replay failed at byte %d: %s" path pos m)
            (apply_op store op)
        in
        go next (count + 1)
    | Torn reason ->
        if is_last then begin
          Durable.truncate_file ~path pos;
          Ok (count, String.length data - pos)
        end
        else
          Error
            (Printf.sprintf "%s: corrupt frame at byte %d (%s) in a non-final \
                             segment" path pos reason)
  in
  go 0 0

let recover ?pool ?(store_cfg = Store.default_config) cfg =
  (match Unix.mkdir cfg.dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error _ -> ());
  if not (Sys.is_directory cfg.dir) then
    Error (Printf.sprintf "WAL dir %s is not a directory" cfg.dir)
  else begin
    let names = list_dir cfg.dir in
    (* A stray [.tmp] is a checkpoint that died mid-write; the rename
       never happened, so it is garbage by construction. *)
    Array.iter
      (fun n ->
        if Filename.check_suffix n ".tmp" then
          try Sys.remove (Filename.concat cfg.dir n) with Sys_error _ -> ())
      names;
    let checkpoints =
      Array.to_list names
      |> List.filter_map (fun n ->
             Option.map (fun e -> (e, Filename.concat cfg.dir n)) (scan_checkpoint n))
      |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
    in
    let segments =
      Array.to_list names
      |> List.filter_map (fun n ->
             Option.map (fun (e, s) -> (e, s, Filename.concat cfg.dir n)) (scan_segment n))
      |> List.sort compare
    in
    (* Newest checkpoint first; a damaged one is quarantined and the
       previous generation (whose segments were kept for exactly this)
       takes over. With no generation left, scratch recovery is still
       exact when the segment history reaches back to epoch 0. *)
    let rec pick_checkpoint skipped = function
      | [] -> (
          match segments with
          | (e, _, _) :: _ when e > 0 ->
              Error
                (Printf.sprintf
                   "no usable checkpoint in %s and its log starts at epoch \
                    %d: the history before is missing (quarantined: %s)"
                   cfg.dir e
                   (String.concat ", " (List.rev skipped)))
          | _ -> Ok (Store.create ?pool store_cfg, None, List.rev skipped))
      | (ep, path) :: rest -> (
          match Durable.read_file path with
          | Error m ->
              let dst = quarantine path in
              pick_checkpoint (Printf.sprintf "%s (%s)" dst m :: skipped) rest
          | Ok s -> (
              match Snapshot.of_string_r ?pool ~shards:store_cfg.shards s with
              | Ok store -> Ok (store, Some ep, List.rev skipped)
              | Error pe when Snapshot.foreign_format s ->
                  (* Not damage: quarantining it and falling back would
                     start from an older generation, or from nothing. *)
                  Error
                    (Printf.sprintf
                       "%s: %s; recovery stopped and left %s as it is: \
                        recover with the build that wrote it, or migrate \
                        or remove the checkpoint by hand"
                       path (Sampling.Io.parse_error_to_string pe) cfg.dir)
              | Error pe ->
                  let dst = quarantine path in
                  pick_checkpoint
                    (Printf.sprintf "%s (%s)" dst
                       (Sampling.Io.parse_error_to_string pe)
                    :: skipped)
                    rest))
    in
    let* store, checkpoint_epoch, skipped_checkpoints =
      pick_checkpoint [] checkpoints
    in
    let base_epoch = Option.value checkpoint_epoch ~default:0 in
    let live = List.filter (fun (e, _, _) -> e >= base_epoch) segments in
    let n_live = List.length live in
    let* replayed, truncated_bytes =
      List.fold_left
        (fun acc (i, (_, _, path)) ->
          let* total, _ = acc in
          let* n, trunc = replay_segment store ~is_last:(i = n_live - 1) path in
          Ok (total + n, trunc))
        (Ok (0, 0))
        (List.mapi (fun i s -> (i, s)) live)
    in
    Store.flush store;
    (* Continue appending where the log left off: the highest live
       epoch/seq (after tail truncation), or a fresh segment. *)
    let epoch, seq =
      match List.rev live with
      | (e, s, _) :: _ -> (e, s)
      | [] -> (base_epoch, 0)
    in
    let* writer = open_segment cfg ~epoch ~seq in
    let wal = { cfg; epoch; seq; writer; unsynced = 0 } in
    Ok
      {
        store;
        wal;
        checkpoint_epoch;
        replayed;
        truncated_bytes;
        skipped_checkpoints;
      }
  end
