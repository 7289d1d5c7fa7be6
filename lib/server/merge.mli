(** Bit-deterministic merge of instance summaries — the algebra behind
    cluster mode.

    Every {!Store} summary is a pure function of the accumulated per-key
    weights and the recorded seeds, so merging reduces to summing the
    weight maps and re-deriving only the entries whose inputs changed:

    - {b weights / volume / records} — pointwise (float / int) sums;
    - {b binary support} — exact union ([u(h) ≤ p] depends on the seed
      alone);
    - {b PPS} — union, with the inclusion predicate [v ≥ u(h)·tau]
      re-tested for keys both sides held (each side may sit below the
      threshold while the sum crosses it); recorded values are refreshed
      to the merged weights;
    - {b bottom-k} — union of the two [k+1]-smallest working sets plus
      every overlap key (ranks recomputed from merged weights where the
      weight changed), truncated to the [k+1] smallest [(rank, key)]
      pairs. Ranks are monotone nonincreasing in the weight, so this
      candidate set provably contains the true working set of the union.

    A summary is the whole state of an instance, so
    {!Store.install_summary} installs a merged summary as is — nothing is
    rebuilt.

    Laws, tested in [test/test_merge.ml]: [merge] is commutative,
    associative up to bit-identity, has the empty summary as identity,
    and satisfies [merge (ingest A) (ingest B) ≡ ingest (A ∪ B)]
    bit-for-bit whenever the per-key weight sums are exact — trivially
    when the key sets are disjoint, which the {!Router}'s hash placement
    guarantees.

    Both stores must share the seed universe (same master seed and
    mode — the [seeds] argument) and the two sides of a merge must agree
    on instance name, id and [tau]/[k]/[p]; anything else is an
    [Error]. *)

val merge :
  Sampling.Seeds.t ->
  Store.summary ->
  Store.summary ->
  (Store.summary, string) result

val merge_all :
  Sampling.Seeds.t -> Store.summary list -> (Store.summary, string) result
(** Left fold of {!merge}; [Error] on an empty list. *)

(** {2 Wire payload}

    Line-oriented, floats as lossless [%h] hex literals, every section
    sorted (byte-stable). A {!Snapshot} is a header line followed by one
    such section per instance:

    {v
    summary <name> <id> <tau> <k> <p> <records> <volume>
    w <key> <weight>      (ascending key)
    s <key> <value>       (ascending key)
    b <key>               (ascending)
    r <key> <rank>        (ascending (rank, key))
    end
    v} *)

val payload : Store.summary -> string list
(** Serialize; [of_lines (payload s) = Ok s]. *)

val section :
  line:int ->
  string list ->
  (Store.summary * int * string list, int * string) result
(** [section ~line lines] parses the one summary section at the head of
    [lines], whose first element is line [line] of its input, and stops
    after its [end]: [Ok (s, next, rest)] gives the number of the first
    unread line and the unread lines. Strict: wrong section order,
    out-of-order or duplicate keys, non-finite numbers, sampled keys
    without a weight entry, an oversized working set and a missing [end]
    are all errors, each with the number of the offending line. *)

val check_derived :
  Sampling.Seeds.t -> Store.summary -> (unit, int * string) result
(** [Ok ()] when the PPS, binary and bottom-k samples are exactly what
    the weights and seeds determine, as in every summary {!Store} exports
    or {!merge} returns; otherwise [Error (off, msg)], [off] being the
    offending line's offset from the section header in {!payload}. *)

val of_lines : string list -> (Store.summary, string) result
(** {!section} over a whole payload (its lines numbered from 1); lines
    after [end] are an error. The message starts with ["line <n>: "]. *)

val materialize :
  ?pool:Numerics.Pool.t ->
  Store.config ->
  Store.summary list ->
  (Store.t, string) result
(** Build a queryable store holding exactly these summaries, each
    installed under its recorded id (so seed recomputation — and hence
    every query answer — matches the exporting daemons bit for bit). *)
