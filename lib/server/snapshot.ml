let magic = "optsample-snapshot 2"

type parse_error = Sampling.Io.parse_error = { line : int; message : string }

let err line message = Error { line; message }
let ( let* ) = Result.bind

let mode_name = function
  | Sampling.Seeds.Shared -> "shared"
  | Sampling.Seeds.Independent -> "independent"

let lines (cfg : Store.config) summaries =
  Printf.sprintf "%s %d %s %h %d %h %d %d" magic cfg.master
    (mode_name cfg.mode) cfg.default_tau cfg.default_k cfg.default_p
    cfg.flush_every (List.length summaries)
  :: List.concat_map Merge.payload summaries

let summaries st =
  Store.flush st;
  List.map Store.export_summary (Store.instances st)

let store_lines st = lines (Store.config st) (summaries st)

let text ls = String.concat "\n" (ls @ [ "" ])

let to_string st = text (store_lines st)

let parse_header header =
  match String.split_on_char ' ' header with
  | [ "optsample-snapshot"; "2"; master; mode; tau; k; p; flush_every; count ]
    ->
      Result.map_error
        (fun message -> { line = 1; message })
        (let* master = Protocol.int_tok "master seed" master in
         let* mode =
           match mode with
           | "shared" -> Ok Sampling.Seeds.Shared
           | "independent" -> Ok Sampling.Seeds.Independent
           | _ ->
               Error
                 (Printf.sprintf
                    "bad seed mode %S (expected shared or independent)" mode)
         in
         let* default_tau = Protocol.float_tok "default tau" tau in
         let* default_k = Protocol.int_tok "default k" k in
         let* default_p = Protocol.float_tok "default p" p in
         let* flush_every = Protocol.int_tok "flush_every" flush_every in
         let* count = Protocol.int_tok "instance count" count in
         let cfg =
           { Store.default_config with
             master; mode; default_tau; default_k; default_p; flush_every }
         in
         let* () = Store.check_defaults cfg in
         if count < 0 then
           Error (Printf.sprintf "negative instance count %d" count)
         else Ok (cfg, count))
  | "optsample-snapshot" :: "2" :: fields ->
      err 1
        (Printf.sprintf
           "truncated snapshot header: %d field(s) after %S, expected 7"
           (List.length fields) magic)
  | "optsample-snapshot" :: version :: _ ->
      err 1
        (Printf.sprintf
           "unsupported snapshot format %S (this build reads format 2 only)"
           version)
  | _ ->
      err 1
        (Printf.sprintf "not an optsample snapshot (header %S, expected %S …)"
           header magic)

(* Header on line 1, then [count] sections in id order, each with the
   line number of its header; one final empty line (the newline that
   ends a file) is not trailing garbage. *)
let parse ls =
  match ls with
  | [] -> err 0 "empty input"
  | header :: rest ->
      let* cfg, count = parse_header header in
      let rec sections i line acc = function
        | ([] | [ "" ]) when i = count -> Ok (cfg, List.rev acc)
        | l :: _ when i = count ->
            err line
              (Printf.sprintf "trailing garbage after %d instance(s): %S" count
                 l)
        | [] | [ "" ] ->
            err line
              (Printf.sprintf "truncated snapshot: %d of %d instance(s)" i
                 count)
        | ls -> (
            match Merge.section ~line ls with
            | Error (n, m) -> err n m
            | Ok (s, next, rest) ->
                if s.Store.s_id <> i then
                  err line
                    (Printf.sprintf "instance id %d out of order (expected %d)"
                       s.Store.s_id i)
                else if List.exists (fun (_, p) -> p.Store.s_name = s.Store.s_name) acc
                then err line (Printf.sprintf "duplicate instance name %S" s.Store.s_name)
                else sections (i + 1) next ((line, s) :: acc) rest)
      in
      sections 0 2 [] rest

let of_lines ls =
  let* cfg, sections = parse ls in
  Ok (cfg, List.map snd sections)

let foreign_format s =
  let eol = Option.value (String.index_opt s '\n') ~default:(String.length s) in
  match String.split_on_char ' ' (String.sub s 0 eol) with
  | "optsample-snapshot" :: v :: _ ->
      v <> "2" && v <> "" && String.for_all (fun c -> c >= '0' && c <= '9') v
  | _ -> false

let of_string_r ?pool ?shards s =
  let* cfg, sections = parse (String.split_on_char '\n' s) in
  (* A restored summary is served as is, so its samples must be the ones
     its weights and seeds determine: a checkpoint carries no CRC. *)
  let seeds = Sampling.Seeds.create ~master:cfg.Store.master cfg.Store.mode in
  let* () =
    List.fold_left
      (fun acc (line, s) ->
        let* () = acc in
        Result.map_error
          (fun (off, message) -> { line = line + off; message })
          (Merge.check_derived seeds s))
      (Ok ()) sections
  in
  let cfg =
    { cfg with Store.shards = Option.value shards ~default:cfg.Store.shards }
  in
  Result.map_error
    (fun message -> { line = 0; message })
    (Merge.materialize ?pool cfg (List.map snd sections))

(* All snapshot bytes go through Durable: the write is atomic (tmp +
   fsync + rename — a crash mid-write never damages the previous file)
   and the I/O fault plane applies, so the crash-recovery suite can tear
   snapshot writes too. *)
let write_lines ls ~path =
  Durable.write_file_atomic ~site:"snapshot.write" ~path (text ls)

let write_summaries cfg summaries ~path =
  Result.map
    (fun () -> List.length summaries)
    (write_lines (lines cfg summaries) ~path)

let write st ~path = write_summaries (Store.config st) (summaries st) ~path

let load ?pool ?shards path =
  match Durable.read_file path with
  | Ok s -> of_string_r ?pool ?shards s
  | Error m -> err 0 m
