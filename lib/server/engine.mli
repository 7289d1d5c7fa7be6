(** Query execution over live {!Store} summaries.

    The engine turns parsed {!Protocol.request}s into one-line JSON
    responses. Every query flushes the store first (so answers reflect
    all ingested records), then routes to the estimation pipeline:

    - [max] — the sum aggregate of max over the instances' live PPS
      samples: per-key [max^(L)] ({!Estcore.Max_pps.l}) for r = 2 (the
      paper's closed form), the [max^(HT)] baseline for any r. Both are
      reported; [estimate] carries the preferred one.
    - [or] — binary OR / distinct count over the live binary support
      samples. The per-key table is machine-derived by Algorithm 1 on
      {!Estcore.Designer.Problems.binary_known_seeds} (memoized in a
      designer cache under the problem's precomputed cheap fingerprint),
      then flattened into an {!Estcore.Or_weighted.Table} (memoized per
      probability pair) so serving reads one unboxed cell per key —
      bit-identical to the hashtable walk; when derivation
      fails the engine degrades to the closed-form [OR^(L)]
      ({!Aggregates.Distinct.l_estimate}) and says so in the
      [provenance] field — the {!Numerics.Robust} ladder pattern.
      r > 2 routes to {!Aggregates.Distinct.Multi} (Theorem 4.1 solver).
    - [distinct] — the L / U / HT distinct-count estimates with the
      five outcome-class counts (Section 8.1).
    - [dominance] — max-dominance ([max^(L)] for r = 2, HT for any r)
      and min-dominance (HT) over the live PPS samples (Section 8.2).
    - [jaccard] / [l1] / [union] / [intersection] — similarity and
      distance queries served by the {!Estcore.Monotone} L* engine over
      the live PPS samples ({!Aggregates.Similarity}): weighted
      union/intersection sums, their ratio (jaccard) and difference
      (l1, r = 2 only). Shared-seed stores only — an independent-seed
      store answers [kind="bad_request"] instead of a silently biased
      estimate, and every other query refusal (unknown instance, wrong
      arity, unknown verb at the parse layer) carries the same
      structured kind.

    Responses carry a [degradations] field — the number of
    {!Numerics.Robust} fallbacks consumed while answering — so clients
    see degraded answers without scraping logs. Each query runs under an
    {!Numerics.Obs} span named [server.query/<kind>]. *)

type t

val eval_or_table :
  (bool array * bool array) Estcore.Designer.estimator ->
  Sampling.Seeds.t ->
  ids:int * int ->
  p1:float ->
  p2:float ->
  s1:int list ->
  s2:int list ->
  float
(** Reference OR^(L) sum: per-key hashtable lookups on freshly built
    (below, sampled) keys. Exposed as the oracle the bit-identity tests
    compare the serving path against. *)

val eval_or_flat :
  Estcore.Or_weighted.Table.t ->
  Sampling.Seeds.t ->
  ids:int * int ->
  p1:float ->
  p2:float ->
  s1:int list ->
  s2:int list ->
  float
(** The serving path: same walk through a flattened 16-cell table —
    bit-identical to {!eval_or_table} on the table it was flattened
    from. *)

val or_flat_tables : p1:float -> p2:float -> ((bool array * bool array) Estcore.Designer.estimator * Estcore.Or_weighted.Table.t, string) result
(** Derive (memoized) the served OR^(L) table for a probability pair and
    its flattened copy — the exact pair [QUERY or] uses; for tests. *)

val create : ?wal:Wal.t -> Store.t -> t
(** With [?wal], mutating requests (CREATE / INGEST / FLUSH) follow the
    write-ahead discipline — validate, log, apply — so the log is always
    a superset of acknowledged state; SNAPSHOT additionally rolls the
    log over as a {!Wal.checkpoint} (the response gains an [epoch]
    field). An overloaded store answers a structured error with
    [kind="overloaded"] and a [retry_after_ms] hint instead of queueing
    unboundedly. *)

val store : t -> Store.t
val wal : t -> Wal.t option

type action = Continue | Close | Stop

val handle_ingest_many : t -> name:string -> (int * float) array -> string
(** Execute one whole [INGESTN] batch: one admission check
    ({!Store.check_ingest_many}), one {!Wal.Ingest_batch} frame (the
    group commit), one {!Store.ingest_many} push — all-or-nothing, same
    write-ahead discipline and structured [overloaded] / [wal] errors as
    single INGEST. Returns the single JSON response for the batch. *)

val handle_request : t -> Protocol.request -> string * action
(** Execute one request; returns the response and what the session
    should do next ([Close] after QUIT, [Stop] after SHUTDOWN). Most
    responses are one JSON line; [PULL] answers {!Protocol.ok_lines}
    with the instance's {!Merge.payload}, and [SYNC] answers the whole
    store's {!Snapshot.store_lines} the same way (taking a
    {!Wal.checkpoint} first when a WAL is attached — the response
    carries the new [epoch], and the shipped payload {e is} the
    checkpoint's content, which is how a follower receives checkpoints
    for failover). *)

val handle_line : t -> string -> string * action
(** {!Protocol.parse} + {!handle_request}; malformed requests produce an
    error response and [Continue]. *)

val query :
  t -> Protocol.query_kind -> string list -> (string, string) result
(** The query path alone (flush + estimate + response assembly), exposed
    so tests and the bench can compare server answers against the batch
    pipeline without a transport. *)
