(** The server's versioned relation store: one master catalog behind a
    mutex, copy-on-write snapshots out, optional persistence over
    {!Tpdb_storage.Db}.

    Writers ({!register}, {!load_csv}) replace a name under the mutex
    and bump its catalog version; readers take an O(names) {!snapshot}
    ({!Tpdb_query.Catalog.copy} — relations are immutable, so the copy
    shares them, and with them each version's statistics, computed by
    the first plan that reads them and never on the LOAD path) and then
    never touch the master again. A running query
    therefore keeps the exact set of relations it started with while
    concurrent LOADs move the master forward: readers never block
    writers and vice versa beyond the O(names) critical section.

    Every registration also records a content digest (FNV-1a 64 of the
    canonical CSV rendering, lineage formulas included). The
    [(name, version, digest)] triples from {!digests} are the result
    cache's input key: a reload bumps the version (and in practice the
    digest), so cached results for any query reading that relation stop
    being reachable. *)

type loaded = { name : string; version : int; rows : int }

type t

val create : ?db:Tpdb_storage.Db.t -> ?stats_dir:string -> unit -> t
(** With [db], every relation already persisted is loaded and every
    future registration is saved back ({!Tpdb_storage.Db.save}, atomic
    per relation). Call on the domain that owns start-up: CSV/heap-file
    lineage parsing interns formulas on the calling domain. *)

val register : t -> Tpdb_relation.Relation.t -> loaded

val load_csv : t -> name:string -> csv:string -> loaded
(** Parses a full CSV document ({!Tpdb_relation.Csv} format, trailing
    newline tolerated) and registers it. Raises {!Tpdb_relation.Csv.Error}
    on malformed input (nothing is registered then). Runs formula
    interning — on the server this is called from worker domains only. *)

val snapshot : t -> Tpdb_query.Catalog.t
(** The current catalog as a private copy: subsequent registrations on
    the store never show through. *)

val digests : t -> string list -> (string * int * string) list option
(** [(name, version, digest)] for each requested name, in request
    order; [None] if any name is unregistered. *)

val view : t -> string list -> Tpdb_query.Catalog.t * (string * int * string) list option
(** {!snapshot} and {!digests} in one critical section, so the returned
    catalog and digest triples describe the same instant — the anchor
    of one query's cache lookups and execution. *)

val generation : t -> int
val names : t -> string list
