(* A small domain pool over a single mutex-protected task queue.

   Invariants that give scheduling-independent results:
   - every combinator decides its chunking from (n, requested) only,
     never from which worker picks what;
   - result slots are disjoint array cells, published to the caller
     through the final mutex synchronization;
   - reductions happen in the caller, left-to-right in index order.

   A caller waiting for its tasks also drains the queue, so nested
   parallel calls from inside tasks cannot deadlock: someone always
   makes progress. *)

type task = unit -> unit

type t = {
  requested : int;
  mutex : Mutex.t;
  cond : Condition.t; (* signals: work enqueued, or some run completed *)
  queue : task Queue.t;
  mutable workers : unit Domain.t array; (* empty until first parallel call *)
  mutable stopped : bool;
}

type run = { mutable pending : int; mutable exn : exn option }

let default_jobs () =
  match Sys.getenv_opt "OPTSAMPLE_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j > 0 -> j
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

let create ?domains () =
  let requested =
    match domains with
    | Some d when d > 0 -> d
    | Some _ -> 1
    | None -> default_jobs ()
  in
  {
    requested;
    mutex = Mutex.create ();
    cond = Condition.create ();
    queue = Queue.create ();
    workers = [||];
    stopped = false;
  }

let size t = t.requested

let rec worker_loop t =
  Mutex.lock t.mutex;
  drain t

and drain t =
  (* called with t.mutex held *)
  if not (Queue.is_empty t.queue) then begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.mutex;
    task ();
    worker_loop t
  end
  else if t.stopped then Mutex.unlock t.mutex
  else begin
    Condition.wait t.cond t.mutex;
    drain t
  end

(* [requested - 1] workers: the caller of [run_all] drains the queue
   too, so it is the pool's last domain. *)
let ensure_started_locked t =
  if Array.length t.workers = 0 then
    t.workers <-
      Array.init (t.requested - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t))

let wrap t r body () =
  let err = (try body (); None with e -> Some e) in
  Mutex.lock t.mutex;
  (match err with
  | Some e when r.exn = None -> r.exn <- Some e
  | _ -> ());
  r.pending <- r.pending - 1;
  if r.pending = 0 then Condition.broadcast t.cond;
  Mutex.unlock t.mutex

let run_inline tasks = Array.iter (fun f -> f ()) tasks

(* Run every task, helping to drain the queue while waiting. *)
let run_all t tasks =
  let n = Array.length tasks in
  if n = 0 then ()
  else if t.requested <= 1 || n = 1 then run_inline tasks
  else begin
    Mutex.lock t.mutex;
    if t.stopped then begin
      Mutex.unlock t.mutex;
      run_inline tasks
    end
    else begin
      ensure_started_locked t;
      let r = { pending = n; exn = None } in
      Array.iter (fun body -> Queue.push (wrap t r body) t.queue) tasks;
      Condition.broadcast t.cond;
      let rec wait () =
        if r.pending = 0 then Mutex.unlock t.mutex
        else if not (Queue.is_empty t.queue) then begin
          let task = Queue.pop t.queue in
          Mutex.unlock t.mutex;
          task ();
          Mutex.lock t.mutex;
          wait ()
        end
        else begin
          Condition.wait t.cond t.mutex;
          wait ()
        end
      in
      wait ();
      match r.exn with Some e -> raise e | None -> ()
    end
  end

let shutdown t =
  Mutex.lock t.mutex;
  if t.stopped then Mutex.unlock t.mutex
  else begin
    t.stopped <- true;
    Condition.broadcast t.cond;
    let ws = t.workers in
    t.workers <- [||];
    Mutex.unlock t.mutex;
    Array.iter Domain.join ws
  end

let default_pool = ref None
let default_pool_mutex = Mutex.create ()

let default () =
  Mutex.protect default_pool_mutex @@ fun () ->
  match !default_pool with
  | Some p -> p
  | None ->
      let p = create () in
      default_pool := Some p;
      at_exit (fun () -> shutdown p);
      p

(* Contiguous chunks: at most 4 per domain so stragglers even out while
   per-task overhead stays negligible, and — when the caller knows its
   bodies are tiny — at least [grain] indices per chunk so enqueue/wakeup
   cost amortizes over a grain of real work. Chunk layout depends on
   (n, requested, grain) only — not on scheduling.

   Boundary triples (n = 0, n < domains, grain > n) are the historical
   trap: the grain clamp [max 1 ...] used to manufacture one empty
   (0, 0) chunk for n = 0, so every layout is checked against the
   partition invariant before use. *)
let check_partition ~n ranges =
  let rec go prev = function
    | [] ->
        if prev <> n then
          failwith
            (Printf.sprintf
               "Pool: chunk layout stops at %d, expected to cover [0, %d)"
               prev n)
    | (lo, hi) :: rest ->
        if lo <> prev then
          failwith
            (Printf.sprintf
               "Pool: chunk [%d, %d) does not start at previous end %d" lo hi
               prev)
        else if hi <= lo then
          failwith (Printf.sprintf "Pool: empty chunk [%d, %d)" lo hi)
        else go hi rest
  in
  go 0 ranges;
  ranges

let chunk_ranges t ?grain n =
  if n < 0 then invalid_arg "Pool: negative length";
  (match grain with
  | Some g when g <= 0 -> invalid_arg "Pool: grain must be positive"
  | _ -> ());
  if n = 0 then []
  else begin
    let nchunks = Stdlib.min n (4 * t.requested) in
    let nchunks =
      match grain with
      | None -> nchunks
      | Some g -> Stdlib.max 1 (Stdlib.min nchunks (n / g))
    in
    (* 1 <= nchunks <= n here, so every floor-partition chunk is
       nonempty and the union is exactly [0, n). *)
    check_partition ~n
      (List.init nchunks (fun c ->
           let lo = c * n / nchunks and hi = (c + 1) * n / nchunks in
           (lo, hi)))
  end

let chunks ?grain t n = chunk_ranges t ?grain n

let parallel_init ?grain t ~n body =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if n = 0 then [||]
  else if t.requested <= 1 then Array.init n body
  else begin
    let res = Array.make n None in
    let run_chunk (lo, hi) () =
      (* Per-chunk task timing feeds the "pool.chunk" histogram (and, when
         tracing, one span per chunk) so skewed chunk layouts show up in
         the trace rather than only as mysterious wall-clock. Off-mode
         cost is the single branch inside {!Obs.enabled}. *)
      if not (Obs.enabled ()) then
        for i = lo to hi - 1 do
          res.(i) <- Some (body i)
        done
      else begin
        let start = Obs.now_ns () in
        let fin () =
          let dur = Int64.sub (Obs.now_ns ()) start in
          (* record_span feeds the histogram itself — observe only when
             no span is retained, so each chunk lands exactly once. *)
          if Obs.tracing () then
            Obs.record_span ~cat:"pool"
              ~args:
                [ ("lo", string_of_int lo); ("hi", string_of_int hi) ]
              ~name:"pool.chunk" ~start_ns:start ~dur_ns:dur ()
          else Obs.observe_ns "pool.chunk" dur
        in
        (try
           for i = lo to hi - 1 do
             res.(i) <- Some (body i)
           done
         with e ->
           fin ();
           raise e);
        fin ()
      end
    in
    let tasks =
      chunk_ranges t ?grain n |> List.map run_chunk |> Array.of_list
    in
    run_all t tasks;
    Array.mapi
      (fun i -> function
        | Some v -> v
        | None ->
            failwith
              (Printf.sprintf
                 "Pool.parallel_init: slot %d of %d left unfilled (worker died?)"
                 i n))
      res
  end

let parallel_map ?grain t f arr =
  parallel_init ?grain t ~n:(Array.length arr) (fun i -> f arr.(i))

let parallel_list_map ?grain t f l =
  Array.to_list (parallel_map ?grain t f (Array.of_list l))

let parallel_for_reduce ?grain t ~n ~body ~init ~combine =
  let vals = parallel_init ?grain t ~n body in
  Array.fold_left combine init vals

let map_streams ?grain t ~master ~n f =
  parallel_init ?grain t ~n (fun i -> f (Prng.substream ~master i) i)
