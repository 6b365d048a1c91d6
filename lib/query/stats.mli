(** Per-relation statistics for the deep analyzer and the cost model.

    A {!t} summarizes one TP relation: cardinality, the two structural
    flags the static safe-plan classification needs ([duplicate_free],
    [lineage_safe]), and a {!detail} block for cost estimation —
    per-column distinct counts, the temporal hull with equi-width
    start/end histograms and a deterministic interval sample, and
    probability moments.

    {!of_relation} computes the cardinality and the flags at once (one
    hash pass each) and the detail only when {!detail} is first called:
    its sorts are the bulk of the work, and a plan without join reorder
    or estimates never reads it. Statistics are persisted next to the
    data as [<name>.stats] in a line-oriented text format
    ({!save}/{!load}) and memoized per registered relation version by
    {!Tpdb_query.Catalog.stats}. The planner treats them as advisory: a
    missing or stale stats file only degrades estimate quality, never
    correctness. *)

val buckets : int
(** Number of equi-width histogram buckets (16). *)

val sample_size : int
(** Maximum interval-sample size (256). The sample is systematic (every
    k-th tuple in fact/start order), so it is deterministic for a given
    relation. *)

type detail = {
  distinct : int array;  (** per fact column, distinct value count *)
  tmin : int;  (** hull start; [0] when the relation is empty *)
  tmax : int;  (** hull end (exclusive); [0] when empty *)
  mean_span : float;  (** mean interval duration *)
  start_hist : int array;  (** interval starts per bucket over the hull *)
  end_hist : int array;  (** interval ends per bucket over the hull *)
  sample : (int * int) array;  (** (ts, te) interval sample, ≤ {!sample_size} *)
  p_min : float;
  p_max : float;
  p_mean : float;
}

type t = {
  relation : string;  (** relation name the stats describe *)
  cardinality : int;
  duplicate_free : bool;
      (** {!Tpdb_relation.Relation.is_duplicate_free} at stats time *)
  lineage_safe : bool;
      (** every tuple lineage is a bare variable and no variable repeats
          — the base-relation shape the safe-plan rule requires (CSV
          loads with explicit lineage columns can violate it) *)
  detail : detail Once.t;
      (** computed by the first {!detail} call; [Once.is_computed] tells
          whether that has happened *)
}

val detail : t -> detail
(** The cost-estimation fields, computed on the first call (safe to
    call from several domains at once) and shared by every copy of the
    record. *)

val of_relation : Tpdb_relation.Relation.t -> t
(** Fresh statistics: the cardinality and flags now, the {!detail} on
    first read. Deterministic: same relation, same stats. *)

val refresh_safety : t -> Tpdb_relation.Relation.t -> t
(** Recomputes the safety-critical flags ([duplicate_free],
    [lineage_safe]) from the live relation, keeping every other field.
    The safe-plan classification skips the runtime read-once check on
    the word of these flags, so they must never be trusted from a
    persisted file — the data may have changed since it was written. *)

val describes : t -> Tpdb_relation.Relation.t -> bool
(** Cheap staleness test: do the stats agree with the live relation on
    cardinality and temporal hull? Gates only the advisory cost fields
    of a persisted file — agreement does not prove the file current,
    which is why {!refresh_safety} applies regardless. Reads the
    {!detail}. *)

val save : t -> string -> unit
(** Writes the line-oriented text rendering to a file. *)

val load : string -> (t, string) result
(** Parses a file written by {!save}. [Error] carries a one-line reason
    (missing file, version mismatch, malformed line). *)

val file : dir:string -> string -> string
(** [file ~dir name] is ["<dir>/<name>.stats"] — where {!save} output
    for relation [name] lives by convention. *)

val to_string : t -> string
(** Human-readable multi-line summary, printed by [tpdb_cli stats]. *)
