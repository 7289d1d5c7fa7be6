(** Sharded in-memory registry of named instances with live coordinated
    summaries.

    Each registered instance owns incrementally-maintained summaries of
    its accumulated [(key, weight)] stream — the samples the
    multi-instance estimators read, kept {e live} instead of rebuilt per
    batch:

    - a {b PPS Poisson} sample under a fixed threshold [tau]: key [h]
      enters the sample the moment its accumulated weight crosses
      [u(h)·tau] and never leaves (weights only grow), so the resident
      sample always equals {!Sampling.Poisson.pps_sample} of the
      accumulated instance, bit for bit;
    - a {b bottom-k} (priority) sample: the [k+1] smallest current
      [(rank, key)] pairs are maintained under updates. Ranks are
      monotone decreasing in the accumulated weight, so the running
      [(k+1)]-max never grows and eviction is exact — the final structure
      equals {!Sampling.Bottom_k.sample} of the accumulated instance;
    - a {b binary support} sample ([u(h) ≤ p]) for the distinct-count
      estimators;

    plus the full per-key weight accumulator (needed anyway: weighted
    ranks are functions of the {e accumulated} weight) and the [records]
    / [volume] counters.

    Seeds are recorded {!Sampling.Seeds} seeds — shared or independent
    mode — so estimator-side seed recomputation works unchanged. Every
    summary is a pure function of (accumulated weights, seeds), so the
    exported {!summary} is an instance's whole state: {!Merge},
    {!Snapshot} and the WAL checkpoint all round-trip it exactly.

    {2 Sharding}

    Instances are assigned round-robin to [shards] mailboxes. The ingest
    hot path only pushes onto the owning shard's lock-free mailbox (one
    CAS, no syscall, no lock); {!flush} drains all mailboxes across the
    {!Numerics.Pool}, one task per shard, each applying its backlog in
    arrival order. Per-instance application order therefore equals
    stream order whatever the shard or domain count — summaries are
    {e bit-identical} across [shards ∈ {1, 2, 4, …}] (tested). Reads
    ({!pps_sample} etc.) are only meaningful after a {!flush}; the
    {!Engine} flushes before every query. *)

type config = {
  shards : int;  (** mailbox count (≥ 1); summaries never depend on it *)
  master : int;  (** master hash seed for {!Sampling.Seeds} *)
  mode : Sampling.Seeds.mode;
  default_tau : float;  (** PPS threshold for instances created without one *)
  default_k : int;  (** bottom-k size default *)
  default_p : float;  (** binary-sample probability default *)
  flush_every : int;  (** auto-flush when this many records are pending *)
  max_inflight : int;
      (** admission limit: shed (structured {!Overloaded} error) when a
          record's target shard already holds this many pending records *)
}

val default_config : config
(** [shards = 1], [master = 42], [Independent], [tau = 100.], [k = 64],
    [p = 0.05], [flush_every = 8192], [max_inflight = 65536]. *)

val check_defaults : config -> (unit, string) result
(** [Error] when a default would be refused as an explicit [CREATE]
    parameter ([tau] finite and [> 0], [k > 0], [p ∈ (0,1]]) or when
    [flush_every ≤ 0]. The serve/route CLIs and the {!Snapshot} header
    parser apply it. *)

type instance_config = { tau : float; k : int; p : float }

type instance
type t

val create : ?pool:Numerics.Pool.t -> config -> t
(** Fresh empty store. [pool] defaults to a lazily-created pool of
    [config.shards] domains. *)

val config : t -> config
val seeds : t -> Sampling.Seeds.t
val pool : t -> Numerics.Pool.t

val create_instance :
  t ->
  name:string ->
  ?tau:float ->
  ?k:int ->
  ?p:float ->
  unit ->
  (instance, string) result
(** Register a named instance (id = creation order, which is also the
    instance id used for seed derivation). [Error] when the name is
    taken. *)

val find : t -> string -> instance option
val instances : t -> instance list
(** All instances in creation (= id) order. *)

type ingest_error =
  | Overloaded of { depth : int; limit : int }
      (** the target shard's mailbox is at [max_inflight]; the record was
          shed (not queued) and the client should back off and retry *)
  | Rejected of string  (** invalid record: bad weight or unknown instance *)

val ingest_error_to_string : ingest_error -> string

val check_ingest : t -> name:string -> weight:float -> (unit, ingest_error) result
(** Validation + admission with {e no} side effect — the write-ahead
    gate: the engine checks first, then logs to the WAL, then calls
    {!ingest}, so a record is never logged-then-shed or shed-then-logged.
    Under the single-producer contract a passing check cannot turn into
    a shed by the time the matching {!ingest} runs. *)

val ingest : t -> name:string -> key:int -> weight:float -> (unit, ingest_error) result
(** Push one record onto the owning shard's mailbox. Lock-free; the
    record is applied at the next {!flush} (or automatically once
    [flush_every] records are pending). [weight] must be finite and
    positive; a full shard sheds with {!Overloaded}. Single-producer:
    call from one session thread at a time. *)

val check_ingest_many :
  t -> name:string -> records:(int * float) array -> (unit, ingest_error) result
(** Batch form of {!check_ingest}: every weight validated, and the whole
    batch shed ({!Overloaded}) when [depth + n] would exceed
    [max_inflight] — all-or-nothing, same write-ahead role. An empty
    batch is {!Rejected}. *)

val ingest_many :
  t -> name:string -> records:(int * float) array -> (unit, ingest_error) result
(** Push a whole batch of [(key, weight)] records for one instance onto
    its shard's mailbox with a {e single} CAS (amortizing the dispatch
    that {!ingest} pays per record). Application order equals the array
    order — summaries are bit-identical to [n] single {!ingest} calls.
    All-or-nothing: an invalid weight or an overloaded shard rejects the
    batch without queueing any record. Single-producer, like {!ingest}. *)

val flush : t -> unit
(** Drain every shard mailbox across the pool and apply all pending
    records, in per-shard arrival order. Idempotent when nothing is
    pending. *)

val pending : t -> int
(** Records pushed but not yet applied (sum of mailbox depths). *)

(** {2 Reading an instance (flush first)} *)

val id : instance -> int
val name : instance -> string
val instance_config : instance -> instance_config
val records : instance -> int
(** Records applied so far. *)

val volume : instance -> float
(** Sum of all applied weights. *)

val cardinality : instance -> int
(** Distinct keys with positive accumulated weight. *)

val to_instance : instance -> Sampling.Instance.t
(** Materialize the accumulated weights (snapshot / test use; O(keys)). *)

val pps_sample : instance -> Sampling.Poisson.pps
(** The live PPS sample — equal to [Sampling.Poisson.pps_sample seeds
    ~instance:(id inst) ~tau] of the accumulated instance. *)

val bottom_k : instance -> Sampling.Bottom_k.t
(** The live bottom-k (PPS-rank) sample — equal to
    [Sampling.Bottom_k.sample] of the accumulated instance. *)

val binary_sample : instance -> int list
(** Support keys with [u(h) ≤ p], ascending — equal to
    [Aggregates.Distinct.sample_binary] of the accumulated instance. *)

(** {2 Mergeable summaries (cluster mode)}

    A [summary] is the complete, order-independent export of one
    instance: every list is sorted (weights/PPS/binary ascending by key,
    bottom-k ascending by [(rank, key)]), so serializing a summary is
    byte-stable whatever the ingestion order or hashtable state — the
    same guarantee the snapshot format gives, extended to the merge
    payloads {!Merge} puts on the wire. *)

type summary = {
  s_name : string;
  s_id : int;  (** recorded id — seed derivation keys off this *)
  s_cfg : instance_config;
  s_records : int;
  s_volume : float;
  s_weights : (int * float) list;  (** accumulated weights, ascending key *)
  s_pps : (int * float) list;  (** live PPS sample, ascending key *)
  s_binary : int list;  (** binary support sample, ascending *)
  s_bk : (float * int) list;
      (** bottom-k working set: the [k+1] smallest [(rank, key)] pairs,
          ascending *)
}

val export_summary : instance -> summary
(** Export the live summaries (flush the store first). *)

val install_summary : t -> summary -> (instance, string) result
(** Register an instance carrying exactly the summary's state, under its
    {e recorded} id (so seed recomputation matches the exporting store —
    the materialized store answers queries bit-identically). The
    installed instance is indistinguishable from the exported one: every
    summary field, [records] and [volume] included, and its shard's
    [applied] counter is credited with [s_records], so STATS after a
    restore reads as it did before. [Error] when the name is taken or
    invalid. *)

(** {2 Shard introspection (STATS)} *)

type shard_stats = {
  shard : int;
  queue_depth : int;  (** records currently waiting in the mailbox *)
  applied : int;  (** records applied by this shard so far *)
}

val shard_stats : t -> shard_stats list
