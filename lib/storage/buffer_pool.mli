(** A fixed-capacity LRU page cache over files.

    Every read of a {!Heap_file} goes through a pool, so repeated scans
    of hot relations avoid I/O — the buffer-manager role of the DBMS
    substrate. Thread-unsafe by design (the executor is
    single-threaded, like a PostgreSQL backend).

    Pages can be {e pinned} while a caller holds a reference into them
    (the out-of-core executor pins the pages of the columnar block it is
    decoding); pinned pages are never eviction victims. When a read
    needs a frame and every resident page is pinned, the pool raises the
    typed {!Pinned_eviction} instead of silently breaking a pin —
    [Tpdb_query.Analyze.diagnostic_of_exn] renders it as a diagnostic. *)

type t

exception
  Pinned_eviction of { path : string; index : int; capacity : int; pinned : int }
(** Raised when loading ([path], [index]) needs to evict but every
    cached page is pinned. Means the pool's capacity is smaller than the
    number of pages the caller pins concurrently. *)

val create : capacity:int -> t
(** [capacity] in pages (> 0). *)

val attach : t -> path:string -> Unix.file_descr -> unit
(** [attach pool ~path fd]: pages of [path] that miss from now on load
    from [fd] — one seek and one read on a descriptor the caller keeps
    open and closes after its last read through the pool. A page that
    starts at or past the end of the file raises [End_of_file]. *)

val detach : t -> path:string -> unit
(** Undoes {!attach}. Resident pages of [path] stay cached and keep
    hitting; a miss raises [Invalid_argument] until the next {!attach}.
    The caller still closes the descriptor. *)

val read_page : t -> path:string -> index:int -> size:int -> Bytes.t
(** Page [index] (0-based) of [path], [size] bytes ([Heap_file.page_size]
    for all callers; short final pages come back zero-padded). A miss
    loads from the descriptor {!attach}ed for [path], and raises
    [Invalid_argument] when there is none. Cached;
    eviction is exact least-recently-used among unpinned pages, in time
    proportional to the number of pinned pages it steps over. The
    returned bytes must not be mutated and may be evicted — and then
    overwritten with the next page loaded — by any later [read_page]:
    {!pin} to keep them resident. *)

val pin : t -> path:string -> index:int -> size:int -> Bytes.t
(** Like {!read_page} but increments the page's pin count: the page is
    not evictable until a matching {!unpin}. Pins nest. *)

val unpin : t -> path:string -> index:int -> unit
(** Releases one pin. Raises [Invalid_argument] if the page is not
    resident with a positive pin count. *)

val with_pin : t -> path:string -> index:int -> size:int -> (Bytes.t -> 'a) -> 'a
(** [pin]s, runs the function on the page bytes, [unpin]s (also on
    exceptions). *)

val pinned_pages : t -> int
(** Number of resident pages with a positive pin count. *)

val stats : t -> int * int
(** (hits, misses) since creation. With a {!Tpdb_obs.Metrics} sink
    installed, hits and misses also feed the [Pool_hits]/[Pool_misses]
    counters. *)

val cached_pages : t -> int

val invalidate : t -> path:string -> unit
(** Drops all cached unpinned pages of one file (after a rewrite). *)
