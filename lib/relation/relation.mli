(** TP relations: a schema plus a bag of TP tuples.

    Base relations are built with {!of_rows}, which assigns each tuple a
    fresh lineage variable (["a1"], ["a2"], ...) as in the paper's Fig. 1.
    Derived relations (join outputs) are built with {!of_tuples}. *)

type t

val of_tuples : Schema.t -> Tuple.t list -> t
(** Raises [Invalid_argument] if a tuple's fact arity differs from the
    schema's. *)

val of_array : Schema.t -> Tuple.t array -> t
(** {!of_tuples} over an array, which the relation takes over (the
    caller must not mutate it afterwards). *)

val of_rows :
  name:string ->
  columns:string list ->
  ?tag:string ->
  (string list * Tpdb_interval.Interval.t * float) list ->
  t
(** Base-relation constructor. [tag] defaults to [name] and names the
    lineage variables; tuple [i] (1-based) gets lineage [Var tag_i] and
    the given probability. *)

val schema : t -> Schema.t
val name : t -> string
val cardinality : t -> int
val tuples : t -> Tuple.t list
val to_seq : t -> Tuple.t Seq.t
val iter : (Tuple.t -> unit) -> t -> unit
val to_array : t -> Tuple.t array
(** The returned array is fresh; mutating it does not affect the
    relation. *)

val prob_env : t list -> Tpdb_lineage.Prob.env
(** Marginals of every base variable appearing as a whole-tuple lineage in
    the given relations. Unknown variables raise
    {!Tpdb_lineage.Prob.Unbound_variable}. *)

val is_duplicate_free : t -> bool
(** No two tuples with the same fact have overlapping intervals — the
    well-formedness condition the paper assumes of TP base relations. *)

val active_domain : t -> Tpdb_interval.Interval.t option
(** Hull of all tuple intervals. *)

val sorted_by_fact_start : t -> Tuple.t list

val coalesce : t -> t
(** Merges adjacent or overlapping tuples with equal fact and equal
    normalized lineage. Results of window-based and timepoint-based join
    computation coalesce to the same relation; used heavily in tests. *)

val equal_as_sets : t -> t -> bool
(** Set equality of tuples under {!Tuple.equal}, ignoring order and exact
    duplicates. Schemas must have equal column lists. *)

val timeslice : Tpdb_interval.Interval.t -> t -> t
(** Restricts the relation to a window of time: tuples overlapping the
    window survive with their intervals clamped to it; lineages and
    probabilities are unchanged (validity is temporal, truth is
    probabilistic). *)

val snapshot_at : Tpdb_interval.Interval.time -> t -> t
(** [timeslice [t, t+1)]: the TP snapshot at one time point. *)

val filter : (Tuple.t -> bool) -> t -> t
val map_tuples : (Tuple.t -> Tuple.t) -> t -> t
val union_all : t -> t -> t
(** Bag union; schemas must have equal column lists. *)

val to_string : t -> string
(** Table rendering in the style of the paper's Fig. 1: a title line,
    the column line, one line per tuple. The text [tpdb_cli query
    --result-only] prints and the server sends. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}'s text, one string per chunk of at most a few
    KiB. The title line and the last line end as [@.] does: open boxes
    are closed and the formatter is flushed and reset. *)

val print : t -> unit
(** Writes {!to_string}'s text to [stdout] in chunks and flushes it,
    after flushing [Format.std_formatter]. *)
