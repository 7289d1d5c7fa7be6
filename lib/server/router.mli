(** Cluster mode: a router process in front of N storage daemons, each
    owning a hash slice of the key space.

    {2 Placement}

    A key's owner is [owner ~backends key] — a fixed-salt
    {!Numerics.Hashing.hash_int} reduced mod the backend count. The salt
    is a constant independent of any store configuration, so placement
    is a pure function of [(key, N)]: deterministic across router
    restarts, and every record for a given key lands on one daemon.
    That disjointness is what makes the cluster {e exact}: per-key
    weights never split across partitions, so {!Merge} reproduces a
    single node's accumulated weights bit-for-bit.

    {2 Bit-identity}

    Queries do {e not} sum per-daemon estimates (float addition order
    would differ by partition count). Instead the router PULLs each
    daemon's mergeable summary, merges them locally ({!Merge.merge_all}),
    materializes a one-shard store under the recorded instance ids (so
    seed derivation is unchanged), and runs the ordinary {!Engine} query
    over it — the same float walk, in the same order, as a single node
    that ingested everything. The answers are byte-identical.

    {2 Wire compatibility}

    The router speaks the daemon protocol on both sides: clients connect
    to it exactly as to a daemon (CREATE fans to all backends with
    defaults resolved router-side; INGEST routes to the key's owner;
    INGESTN bodies are split by ownership and forwarded as per-owner
    INGESTN batches; QUERY / PULL / SYNC / SNAPSHOT / STATS answer from
    the merged view; FLUSH fans out and sums [pending]). SHUTDOWN stops
    the router only — the daemons are separate processes with their own
    lifecycles.

    The router requires every backend to share its master seed and
    sampling mode (checked against PULL / SYNC response headers); a
    mismatch is an error, never a silently wrong merge. *)

type t

val owner : backends:int -> int -> int
(** [owner ~backends key] — which backend (0-based) owns [key]. *)

val connect :
  ?retry:Client.retry ->
  store_cfg:Store.config ->
  Unix.sockaddr list ->
  (t, string) result
(** Dial every backend and bootstrap the instance catalog by SYNCing
    backend 0 (all backends hold identical catalogs — CREATE fans out —
    so any one serves; this is how a {e restarted} router relearns
    instances it didn't create). Verifies the backends' master seed and
    mode against [store_cfg]; [store_cfg.shards] is forced to 1 for the
    router's local merged stores (summaries never depend on it). On any
    failure every opened connection is closed. *)

val backend_count : t -> int

val handlers : t -> Daemon.handlers
(** The fan-out request handlers, pluggable into {!Daemon}'s event
    loop. *)

val serve : ?config:Daemon.config -> t -> Unix.file_descr -> unit
(** {!Daemon.serve_handlers} over {!handlers} — run the router's serving
    loop on the calling domain until SHUTDOWN. *)

val start : ?config:Daemon.config -> t -> Daemon.t
(** In-process router on a fresh domain ({!Daemon.start_handlers}) —
    how the tests and the bench run a cluster. The router [t] must only
    be touched by that domain until the daemon is joined. *)

val close : t -> unit
(** Close the backend connections and shut the router's pool down. *)
