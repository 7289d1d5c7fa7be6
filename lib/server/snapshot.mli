(** Full-store persistence, so a daemon restart starts warm — and the
    only module that reads or writes snapshot text: daemon [SNAPSHOT],
    WAL checkpoints and [SYNC] shipping (daemon and router) all go
    through here.

    Format (one line each, floats as lossless hex literals — the
    {!Sampling.Io} house style):

    {v
    optsample-snapshot 2 <master> <mode> <tau-hex> <k> <p-hex> <flush_every> <n>
    summary <name> <id> ...   (n Merge.payload sections, in id order)
    ...
    end
    ...
    v}

    Each section is the instance's {!Store.summary} exactly as
    {!Merge.payload} writes it, and loading installs it with
    {!Store.install_summary}. A summary is an instance's whole state, so
    a restore is bit-identical on every field — [records] and [volume]
    included — and the restored store keeps ingesting exactly as the
    original would have.

    The shard count is {e not} part of the snapshot: summaries never
    depend on it, so the loader picks its own (default
    {!Store.default_config}[.shards], override with [?shards]). *)

val magic : string
(** ["optsample-snapshot 2"]. *)

val mode_name : Sampling.Seeds.mode -> string
(** ["shared"] / ["independent"] — the seed-mode spelling of the
    snapshot header and of the PULL / SYNC response headers. *)

val lines : Store.config -> Store.summary list -> string list
(** The snapshot of a store with this config holding these summaries,
    one element per line (no newlines) — what [SYNC] ships. *)

val store_lines : Store.t -> string list
(** {!lines} of the whole store (flushes it first). *)

val to_string : Store.t -> string
(** {!store_lines}, each line terminated by a newline. *)

val of_lines :
  string list ->
  (Store.config * Store.summary list, Sampling.Io.parse_error) result
(** Parse a snapshot given as its lines (a [SYNC] payload) into the
    header's config (shards and admission limit at their defaults) and
    the sections. Strict: a bad or format-1 header, header defaults that
    {!Store.check_defaults} refuses (the bounds [CREATE] puts on its
    parameters, and [flush_every > 0]), any section {!Merge.section}
    rejects (including duplicate keys), out-of-order instance ids,
    duplicate instance names, a truncated file and trailing garbage are
    all errors, numbered by their line in the whole snapshot. *)

val foreign_format : string -> bool
(** Whether [text]'s first line is the header of another numbered
    snapshot format: a file this build cannot read, not a damaged one.
    {!Wal.recover} stops on such a checkpoint instead of quarantining it. *)

val of_string_r :
  ?pool:Numerics.Pool.t ->
  ?shards:int ->
  string ->
  (Store.t, Sampling.Io.parse_error) result
(** {!of_lines}, then {!Merge.check_derived} on each section — a
    summary is served as is, so samples that do not follow from its
    weights and seeds are an error at the offending line — then
    {!Merge.materialize} of the sections into a fresh store. *)

val write_lines : string list -> path:string -> (unit, string) result
(** Write snapshot lines (from {!lines} or {!store_lines}) to a file
    {e atomically} (via {!Durable.write_file_atomic}: tmp + fsync +
    rename, so a crash mid-write never damages a previous snapshot at
    the same path). File system errors come back as [Error]. *)

val write_summaries :
  Store.config -> Store.summary list -> path:string -> (int, string) result
(** {!write_lines} of {!lines}; returns the number of instances
    persisted. *)

val write : Store.t -> path:string -> (int, string) result
(** {!write_summaries} of the whole store (flushes it first). *)

val load :
  ?pool:Numerics.Pool.t ->
  ?shards:int ->
  string ->
  (Store.t, Sampling.Io.parse_error) result
(** [load path]: {!of_string_r} on the file's contents. *)
