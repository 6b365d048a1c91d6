(** Named relations available to queries, with the probability environment
    of all their base variables. *)

module Relation = Tpdb_relation.Relation
module Prob = Tpdb_lineage.Prob

type t

val create : unit -> t

val register : t -> Relation.t -> unit
(** Keyed by {!Relation.name}; re-registering a name replaces it and
    bumps both the name's {!version} and the catalog {!generation}. *)

val version : t -> string -> int
(** How many times this name has been registered (0 = never). A cached
    plan or result keyed on the versions of the relations it read is
    valid exactly while every one of those versions is unchanged. *)

val generation : t -> int
(** Total number of registrations; bumps whenever anything changes. *)

val copy : t -> t
(** A copy-on-write snapshot: O(number of names), sharing the immutable
    relation values, their statistics memos and the {!env} memo.
    Mutations on either side ({!register}, {!set_stats_dir}) never show
    through to the other. *)

val find : t -> string -> Relation.t option
val find_exn : t -> string -> Relation.t
(** Raises [Not_found]. *)

val names : t -> string list
(** Sorted. *)

val env : t -> Prob.env
(** Marginals of every base variable of every registered relation.
    Memoized per {!generation}: computed on the first call after a
    {!register} (never by {!register} itself; safe when several domains
    call at once) and shared by every {!copy} taken since, until either
    side registers again. *)

val set_stats_dir : t -> string -> unit
(** Directory where persisted statistics ([<name>.stats], written by
    [tpdb_cli stats]) are looked up before computing fresh ones. Resets
    this catalog's statistics memos. *)

val stats : t -> string -> Stats.t option
(** Statistics for a registered relation, memoized per registered
    version: the memo is created by {!register}, computed on the first
    call (never by {!register} itself; safe when several domains call
    at once) and shared by every {!copy} taken while the version is
    current. Resolution order is persisted file in the stats directory
    (ignored if unparseable or describing a different relation) → fresh
    {!Stats.of_relation} on the registered data; either way the
    {!Stats.detail} block is computed only when read. [None] only for
    names that are not registered and have no stats file.

    Persisted files are advisory (cost estimation) only: the
    safety-critical [duplicate_free]/[lineage_safe] flags are always
    recomputed from the registered relation ({!Stats.refresh_safety});
    a file that disagrees with the live data on cardinality or hull is
    discarded as stale, and a file for an unregistered name has both
    safety flags forced off. *)
