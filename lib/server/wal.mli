(** Append-only, CRC-guarded op log composing with {!Snapshot} for
    exact crash recovery: checkpoint = full snapshot, WAL = delta since.

    Mutating requests (CREATE / INGEST / FLUSH) are framed as
    [[len:int32le][crc32:int32le][payload]] and appended to segment
    files [wal-<epoch>-<seq>.log] under the log directory; a
    {!checkpoint} writes [checkpoint-<epoch>.snap] atomically, bumps the
    epoch, and prunes everything older than one fallback generation.

    A checkpoint holds every instance's exact {!Store.summary} and
    summaries are deterministic functions of the accumulated per-key
    weights and the recorded seeds (see {!Store}), so replaying the log
    against the checkpoint reproduces every summary field — [records]
    and [volume] included — and hence STATS and query answers {e bit for
    bit}; the crash-recovery property suite in [test/test_wal.ml]
    enforces this at injected torn-write / fsync-failure /
    mid-checkpoint crash points. *)

type fsync_policy =
  | Always  (** fsync after every append — no acknowledged record is ever lost *)
  | Interval of int  (** fsync every [n] appends — bounded loss window *)
  | Never  (** leave flushing to the OS — crash loses the unsynced tail *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** Accepts ["always"], ["never"], ["interval=N"] (or a bare positive
    integer, meaning [Interval]). *)

type config = {
  dir : string;  (** log directory (created on {!recover} if missing) *)
  fsync : fsync_policy;
  segment_bytes : int;  (** rotate the segment once it reaches this size *)
}

val default_config : dir:string -> config
(** [fsync = Always], [segment_bytes = 4 MiB]. *)

type op =
  | Create of { name : string; tau : float; k : int; p : float }
      (** resolved parameters — defaults applied {e before} logging, so
          replay is independent of the server's defaults *)
  | Ingest of { name : string; key : int; weight : float }
  | Ingest_batch of { name : string; records : (int * float) array }
      (** one [INGESTN] batch as {e one} frame — the group commit: a
          single append (hence a single fsync under [Always], a single
          interval tick under [Interval]) covers the whole batch, and a
          torn tail drops the batch atomically (a frame is all-or-nothing
          by construction, so no partial batch can ever replay) *)
  | Flush

(** {2 Frames (exposed for tests and the bench kernels)} *)

val max_payload : int
(** Largest payload a frame may carry (64 KiB); [Protocol.max_batch] is
    sized so a full batch always fits. *)

val encode_frame : op -> string

type decoded =
  | Frame of op * int  (** the op and the next frame's byte offset *)
  | End  (** clean end of the segment *)
  | Torn of string  (** malformed suffix: torn tail or corruption *)

val decode_at : string -> int -> decoded

(** {2 The live log} *)

type t

val append : t -> op -> (unit, string) result
(** Frame and append one op, honoring the fsync policy and rotating the
    segment when full. [Error] means the op is {e not} durable and must
    not be applied or acknowledged (write-ahead discipline). *)

val checkpoint : t -> Store.t -> (int, string) result
(** Write a snapshot of the store as the next epoch's checkpoint
    (atomically: tmp + fsync + rename), start a fresh segment, and prune
    files older than one fallback generation. Returns the new epoch. *)

val close : t -> unit
(** Final fsync (unless [Never]) and close the current segment. *)

val segment : t -> string
(** Path of the segment currently being appended. *)

(** {2 Recovery} *)

type recovery = {
  store : Store.t;  (** checkpoint + replayed delta, flushed *)
  wal : t;  (** attached for further appends, continuing the log *)
  checkpoint_epoch : int option;  (** [None] on a cold start *)
  replayed : int;  (** ops re-applied from segments *)
  truncated_bytes : int;  (** torn tail dropped from the final segment *)
  skipped_checkpoints : string list;
      (** damaged checkpoints, quarantined as [<file>.corrupt], with the
          parse diagnostic *)
}

val recover :
  ?pool:Numerics.Pool.t ->
  ?store_cfg:Store.config ->
  config ->
  (recovery, string) result
(** Rebuild the store from the newest usable checkpoint plus its delta.
    A damaged newest checkpoint is quarantined and the previous
    generation takes over (its segments were kept for exactly this); a
    malformed suffix of the {e final} segment is treated as a torn tail,
    dropped, and physically truncated — malformed bytes anywhere else
    are an error, never silently skipped. A checkpoint in another
    snapshot format ({!Snapshot.foreign_format}) is not damage: recovery
    stops with an error and leaves the directory as it is. So does a
    directory with no usable checkpoint whose segments do not reach back
    to epoch 0 (the history before them is gone). [store_cfg] (default
    {!Store.default_config}) supplies the configuration when no
    checkpoint exists, and the shard count always. *)
