(** Paged heap files for TP relations, the format of {!Db}.

    Layout: a header page (magic, format version 1, schema, tuple and
    page counts) followed by fixed-size data pages. Each data page holds
    a record count and a run of self-delimiting tuple records; a tuple
    never spans pages unless it is larger than a page, in which case it
    gets a private oversized chain (length-prefixed).

    Relations are immutable, so files are written once (atomically, via
    a temp file and rename) and only read afterwards.

    The out-of-core executor does not use this format: its spill file
    ({!Spill}) is a private stream of {!Codec.Column} blocks that lives
    only as long as one join, so it needs no header, no page padding
    and no rename. A file of the former columnar format (version 2) is
    rejected as an unsupported version. *)

val page_size : int
(** 4096 bytes. *)

exception Corrupt of string

val write : string -> Tpdb_relation.Relation.t -> unit
(** [write path relation] — row format; atomic: the file appears
    complete or not at all. *)

val read : pool:Buffer_pool.t -> string -> Tpdb_relation.Relation.t
(** Reads the whole relation. Pages come through [pool] and stay cached
    for subsequent reads; the pages that miss load from one descriptor
    held open for the length of the read and closed however it ends.
    Raises {!Corrupt} on bad magic, version, or page contents;
    [Sys_error] on I/O failure. *)

val schema_of : pool:Buffer_pool.t -> string -> Tpdb_relation.Schema.t
(** Header-only read. *)

val page_count : pool:Buffer_pool.t -> string -> int
(** Data pages (excluding the header). *)
