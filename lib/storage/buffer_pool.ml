module Metrics = Tpdb_obs.Metrics

type key = string * int

(* Resident pages sit on an intrusive doubly linked recency list,
   most recently used first, closed into a ring by a sentinel. A hit
   moves its entry to the front; the victim is the entry nearest the
   back that is not pinned. That is exact LRU — the same victims the
   former stamp scan over the whole table chose — at the cost of
   stepping over pinned pages only. *)
type entry = {
  key : key;
  bytes : Bytes.t;
  mutable pins : int;
  mutable prev : entry;
  mutable next : entry;
}

exception
  Pinned_eviction of { path : string; index : int; capacity : int; pinned : int }

type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  ring : entry;  (** sentinel: [ring.next] is the most recent page *)
  mutable files : (string * Unix.file_descr) list;
      (** open descriptors that pages of these paths load from *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  let rec ring =
    { key = ("", -1); bytes = Bytes.empty; pins = 0; prev = ring; next = ring }
  in
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    ring;
    files = [];
    hits = 0;
    misses = 0;
  }

let attach pool ~path fd =
  pool.files <- (path, fd) :: List.remove_assoc path pool.files

let detach pool ~path = pool.files <- List.remove_assoc path pool.files

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front pool e =
  e.prev <- pool.ring;
  e.next <- pool.ring.next;
  pool.ring.next.prev <- e;
  pool.ring.next <- e

let pinned_pages pool =
  Hashtbl.fold (fun _ e acc -> if e.pins > 0 then acc + 1 else acc) pool.table 0

(* Evict the least-recently-used unpinned page to make room for
   [~for_], handing back its bytes for reuse. A pinned page is never a
   victim: if every resident page is pinned the pool cannot honor the
   read without breaking a pin, which is a caller bug (pool sized below
   the number of concurrently pinned pages) — surfaced as the typed
   {!Pinned_eviction}, which [Analyze.diagnostic_of_exn] renders. *)
let evict_lru pool ~for_:(path, index) =
  let rec victim e =
    if e == pool.ring then
      raise
        (Pinned_eviction
           { path; index; capacity = pool.capacity; pinned = pinned_pages pool })
    else if e.pins > 0 then victim e.prev
    else e
  in
  let e = victim pool.ring.prev in
  unlink e;
  Hashtbl.remove pool.table e.key;
  e.bytes

(* One seek and as many reads as the page needs, on a descriptor the
   caller holds open. A page that starts at or past the end of the
   file raises [End_of_file]. *)
let load_fd fd index bytes =
  let size = Bytes.length bytes in
  ignore (Unix.lseek fd (index * size) Unix.SEEK_SET);
  let rec fill got =
    if got < size then
      match Unix.read fd bytes got (size - got) with
      | 0 -> got
      | n -> fill (got + n)
    else got
  in
  let got = fill 0 in
  if got = 0 then raise End_of_file;
  Bytes.fill bytes got (size - got) '\000'

let entry_for pool ~path ~index ~size =
  let key = (path, index) in
  match Hashtbl.find_opt pool.table key with
  | Some e ->
      pool.hits <- pool.hits + 1;
      Metrics.incr Metrics.Pool_hits;
      if pool.ring.next != e then begin
        unlink e;
        push_front pool e
      end;
      e
  | None ->
      let fd =
        match List.assoc_opt path pool.files with
        | Some fd -> fd
        | None -> invalid_arg ("Buffer_pool: no descriptor attached for " ^ path)
      in
      pool.misses <- pool.misses + 1;
      Metrics.incr Metrics.Pool_misses;
      let bytes =
        if Hashtbl.length pool.table >= pool.capacity then
          let reused = evict_lru pool ~for_:key in
          if Bytes.length reused = size then reused else Bytes.create size
        else Bytes.create size
      in
      load_fd fd index bytes;
      let e = { key; bytes; pins = 0; prev = pool.ring; next = pool.ring } in
      push_front pool e;
      Hashtbl.replace pool.table key e;
      e

let read_page pool ~path ~index ~size =
  (entry_for pool ~path ~index ~size).bytes

let pin pool ~path ~index ~size =
  let e = entry_for pool ~path ~index ~size in
  e.pins <- e.pins + 1;
  e.bytes

let unpin pool ~path ~index =
  match Hashtbl.find_opt pool.table (path, index) with
  | Some e when e.pins > 0 -> e.pins <- e.pins - 1
  | _ -> invalid_arg "Buffer_pool.unpin: page not pinned"

let with_pin pool ~path ~index ~size f =
  let bytes = pin pool ~path ~index ~size in
  Fun.protect ~finally:(fun () -> unpin pool ~path ~index) (fun () -> f bytes)

let stats pool = (pool.hits, pool.misses)

let cached_pages pool = Hashtbl.length pool.table

let invalidate pool ~path =
  let stale =
    Hashtbl.fold
      (fun (p, _) e acc ->
        if String.equal p path && e.pins = 0 then e :: acc else acc)
      pool.table []
  in
  List.iter
    (fun e ->
      unlink e;
      Hashtbl.remove pool.table e.key)
    stale
