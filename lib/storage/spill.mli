(** Grace-style spill partitioning for the out-of-core join executor.

    [partition_pair] streams both inputs of an equi-θ join into one
    spill file under a private temp directory: a stream of
    length-prefixed {!Codec.Column} blocks of up to 512 tuples, each of
    one side of one partition, appended as they fill. An in-memory
    extent list per side and partition records where its blocks are;
    at the end each partition's last left and last right blocks are
    written side by side. The file descriptor stays open until
    {!finish} or {!cleanup}, and the executor reads the partitions back
    one at a time through a budget-sized {!Buffer_pool} that loads
    missing pages from that descriptor ([read_left]/[read_right]),
    sweeps each pair, and calls {!finish} to record the pool hit rate,
    close the descriptor and drop the file and directory.

    The file is private and dies with the join, so it has no header, no
    temp name and no rename: nothing ever opens it by name but this
    module.

    This module knows nothing about θ or join keys: callers pass
    [left_key]/[right_key] functions that map a tuple directly to its
    partition index — the executor composes the same fact-key hash and
    {!Tpdb_engine.Parallel.bucket_of} as the in-RAM parallel path, which
    is what makes spilled output identical to in-RAM output.

    Metrics (with a {!Tpdb_obs.Metrics} sink installed): [Spill_bytes]
    and [Spill_partitions] counters, the [Spill_partition_bytes]
    distribution on write, and one [Pool_hit_rate] (permille)
    observation per join in {!finish}. *)

type t

val estimate_bytes : ?rows:int -> Tpdb_relation.Relation.t -> int
(** Estimated in-memory working-set bytes of a relation: row count
    ([?rows] — e.g. a planner {!Stats} cardinality — defaulting to live
    counting via [Relation.cardinality]) × mean encoded tuple size over
    a ≤ 64-tuple sample × a decoded-representation expansion factor. *)

val partitions_for : budget:int -> est:int -> int
(** Partition count such that one partition pair fits roughly half the
    budget, clamped to [\[2, 256\]]. Raises [Invalid_argument] when
    [budget <= 0]. *)

val pool_pages : budget:int -> int
(** Buffer-pool capacity (pages) for a spilled sweep: about a quarter of
    the budget, at least 16 pages. *)

val partition_pair :
  ?dir:string ->
  partitions:int ->
  pool_pages:int ->
  left_key:(Tpdb_relation.Tuple.t -> int) ->
  right_key:(Tpdb_relation.Tuple.t -> int) ->
  Tpdb_relation.Schema.t * Tpdb_relation.Tuple.t Seq.t ->
  Tpdb_relation.Schema.t * Tpdb_relation.Tuple.t Seq.t ->
  t
(** Streams both inputs into one spill file, [partitions] runs per
    side. [?dir] defaults to a fresh private directory claimed
    atomically (mkdir-as-claim, mkdtemp-style), so concurrent spilling
    joins in the same or different processes never share a directory;
    the file inside is created with [O_EXCL]. [left_key]/[right_key]
    must return an index in [\[0, partitions)]. Memory use is one
    pending block per side and partition. On exception the file and
    directory are removed, the descriptor closed, and the exception
    re-raised; I/O failures surface as [Sys_error]. *)

val partitions : t -> int

val dir : t -> string
(** The private directory holding this spill's file — unique per live
    spill (the claim is the directory's creation). *)

val bytes : t -> int
(** Total encoded bytes written (the amount added to [Spill_bytes]). *)

val pool : t -> Buffer_pool.t

val read_left : t -> int -> Tpdb_relation.Relation.t
val read_right : t -> int -> Tpdb_relation.Relation.t
(** Materialize one partition, pages through the spill's buffer pool,
    decoded straight into one tuple array. Raises {!Heap_file.Corrupt}
    on a truncated or damaged file and [Invalid_argument] after
    {!finish}/{!cleanup}. *)

val finish : t -> unit
(** Observes the pool hit rate ([Pool_hit_rate], permille), closes the
    descriptor and deletes the file and directory. *)

val cleanup : t -> unit
(** Closes and deletes without recording anything (error paths).
    Idempotent, as is {!finish}'s cleanup. *)
