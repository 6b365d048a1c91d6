module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Metrics = Tpdb_obs.Metrics
module Column = Codec.Column

let expansion_factor = 8
let sample_tuples = 64

let mean_tuple_bytes relation =
  let n = ref 0 and bytes = ref 0 in
  Seq.iter
    (fun tp ->
      incr n;
      bytes := !bytes + Codec.tuple_size tp)
    (Seq.take sample_tuples (Relation.to_seq relation));
  if !n = 0 then 0 else !bytes / !n

let estimate_bytes ?rows relation =
  let rows = Option.value rows ~default:(Relation.cardinality relation) in
  rows * mean_tuple_bytes relation * expansion_factor

let partitions_for ~budget ~est =
  if budget <= 0 then invalid_arg "Spill.partitions_for: budget must be positive";
  let n = ((2 * est) + budget - 1) / budget in
  max 2 (min 256 n)

let pool_pages ~budget =
  max 16 (budget / (4 * Heap_file.page_size))

let page_size = Heap_file.page_size
let corrupt fmt = Printf.ksprintf (fun msg -> raise (Heap_file.Corrupt msg)) fmt

(* The spill file is a stream of blocks, each a u64 length and then a
   [Codec.Column] payload of at most [block_tuples] tuples of one side
   of one partition. Blocks are appended as they fill, so a partition's
   blocks are scattered through the file; its extent list says where.
   Nothing else is in the file: no header, no padding. *)
let block_tuples = 512

(* One side of one partition: the tuples waiting for their block, and
   the blocks already in the file. *)
type run = {
  mutable pending : Tuple.t array;
  mutable count : int;  (** pending tuples *)
  mutable blocks : int list;  (** file offsets of written blocks, newest first *)
  mutable tuples : int;  (** tuples in written blocks *)
  mutable bytes : int;  (** written bytes, length prefixes included *)
}

type t = {
  dir : string;
  path : string;
  fd : Unix.file_descr;
  mutable closed : bool;
  size : int;  (** bytes in the file *)
  partitions : int;
  left_schema : Schema.t;
  right_schema : Schema.t;
  left : run array;
  right : run array;
  pool : Buffer_pool.t;
  bytes : int;  (** encoded bytes written across all blocks *)
  mutable scratch : Bytes.t;  (** reassembles blocks that span pages *)
}

let partitions t = t.partitions
let bytes t = t.bytes
let pool t = t.pool
let dir t = t.dir

(* Spill I/O goes through [Unix]; its failures surface as [Sys_error],
   like those of the channel functions, so callers see one exception
   for a full disk or a vanished file. *)
let io path f =
  try f ()
  with Unix.Unix_error (err, fn, _) ->
    raise (Sys_error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message err)))

(* Race-free fresh directory, mkdtemp-style: [Sys.mkdir] fails if the
   path already exists, so creating the directory IS the claim on the
   name. The previous temp_file/remove/mkdir dance had a window between
   the remove and the mkdir in which a concurrent process could take
   the name — two spilling joins would then interleave partition files
   in one directory. *)
let temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rand = lazy (Random.State.make_self_init ()) in
  let rec claim attempts =
    if attempts >= 1000 then
      raise
        (Sys_error
           (Printf.sprintf "Spill.temp_dir: no fresh directory under %s" base));
    let candidate =
      Filename.concat base
        (Printf.sprintf "tpdb-spill-%d-%06x" (Unix.getpid ())
           (Random.State.bits (Lazy.force rand) land 0xffffff))
    in
    match Sys.mkdir candidate 0o700 with
    | () -> candidate
    | exception Sys_error _ when Sys.file_exists candidate ->
        claim (attempts + 1)
  in
  claim 0

let remove_all ~fd ~path ~dir =
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let cleanup t =
  if not t.closed then begin
    t.closed <- true;
    remove_all ~fd:t.fd ~path:t.path ~dir:t.dir
  end

(* Report the pool's hit rate for this spilled join (permille), then
   drop the spill file. *)
let finish t =
  let hits, misses = Buffer_pool.stats t.pool in
  if hits + misses > 0 then
    Metrics.observe Metrics.Pool_hit_rate (hits * 1000 / (hits + misses));
  cleanup t

(* --- writing ---------------------------------------------------------- *)

(* Blocks are encoded into one reused [Buffer] and copied from it into
   one reused output buffer, which is written to the descriptor when
   full: no per-block string, no channel. *)
type writer = {
  fd : Unix.file_descr;
  out : Bytes.t;
  mutable fill : int;
  mutable offset : int;  (** file offset of [out.[0]] *)
  block : Buffer.t;
}

let drain w =
  if w.fill > 0 then begin
    ignore (Unix.write w.fd w.out 0 w.fill);
    w.offset <- w.offset + w.fill;
    w.fill <- 0
  end

let put_int64 w v =
  if w.fill + 8 > Bytes.length w.out then drain w;
  Bytes.set_int64_le w.out w.fill (Int64.of_int v);
  w.fill <- w.fill + 8

let put_buffer w b =
  let len = Buffer.length b in
  let src = ref 0 in
  while !src < len do
    if w.fill = Bytes.length w.out then drain w;
    let n = min (len - !src) (Bytes.length w.out - w.fill) in
    Buffer.blit b !src w.out w.fill n;
    w.fill <- w.fill + n;
    src := !src + n
  done

let flush_run w run =
  if run.count > 0 then begin
    Buffer.clear w.block;
    Column.encode_sub w.block run.pending run.count;
    let len = Buffer.length w.block in
    run.blocks <- (w.offset + w.fill) :: run.blocks;
    put_int64 w len;
    put_buffer w w.block;
    run.tuples <- run.tuples + run.count;
    run.bytes <- run.bytes + 8 + len;
    (* drop the references, so written tuples can die *)
    Array.fill run.pending 0 run.count Column.placeholder;
    run.count <- 0
  end

let add w run tp =
  if run.count = Array.length run.pending then begin
    let grown =
      Array.make (max 64 (min block_tuples (2 * run.count))) Column.placeholder
    in
    Array.blit run.pending 0 grown 0 run.count;
    run.pending <- grown
  end;
  run.pending.(run.count) <- tp;
  run.count <- run.count + 1;
  if run.count = block_tuples then flush_run w run

let new_run () = { pending = [||]; count = 0; blocks = []; tuples = 0; bytes = 0 }

let partition_pair ?dir ~partitions ~pool_pages:capacity ~left_key ~right_key
    (lschema, lseq) (rschema, rseq) =
  if partitions < 1 then invalid_arg "Spill.partition_pair: partitions < 1";
  let dir = match dir with Some d -> d | None -> temp_dir () in
  let path = Filename.concat dir "join.tps" in
  let fd =
    try
      io path (fun () ->
          Unix.openfile path
            [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
            0o600)
    with e ->
      (try Sys.rmdir dir with Sys_error _ -> ());
      raise e
  in
  try
    io path @@ fun () ->
    let w =
      { fd; out = Bytes.create 65536; fill = 0; offset = 0; block = Buffer.create 65536 }
    in
    let left = Array.init partitions (fun _ -> new_run ()) in
    let right = Array.init partitions (fun _ -> new_run ()) in
    Seq.iter (fun tp -> add w left.(left_key tp) tp) lseq;
    Seq.iter (fun tp -> add w right.(right_key tp) tp) rseq;
    (* each partition's last left and right blocks go out side by side,
       so the tail of a partition pair is contiguous on disk *)
    let bytes = ref 0 in
    for i = 0 to partitions - 1 do
      flush_run w left.(i);
      flush_run w right.(i);
      let pair_bytes = left.(i).bytes + right.(i).bytes in
      bytes := !bytes + pair_bytes;
      Metrics.observe Metrics.Spill_partition_bytes pair_bytes
    done;
    drain w;
    Metrics.add Metrics.Spill_bytes !bytes;
    Metrics.add Metrics.Spill_partitions partitions;
    let pool = Buffer_pool.create ~capacity in
    Buffer_pool.attach pool ~path fd;
    {
      dir;
      path;
      fd;
      closed = false;
      size = w.offset;
      partitions;
      left_schema = lschema;
      right_schema = rschema;
      left;
      right;
      pool;
      bytes = !bytes;
      scratch = Bytes.empty;
    }
  with e ->
    remove_all ~fd ~path ~dir;
    raise e

(* --- reading ---------------------------------------------------------- *)

(* Copies [len] bytes at file offset [off] into [dst], page by page
   through the pool. *)
let blit_pages t ~off dst len =
  let copied = ref 0 in
  while !copied < len do
    let at = off + !copied in
    let page =
      Buffer_pool.read_page t.pool ~path:t.path ~index:(at / page_size)
        ~size:page_size
    in
    let o = at mod page_size in
    let n = min (len - !copied) (page_size - o) in
    Bytes.blit page o dst !copied n;
    copied := !copied + n
  done

(* Decodes the block at file offset [off] into [dst] from [filled] on;
   returns its tuple count. A block that lies within one page decodes
   in place from the pooled page, pinned for the decode; a larger one is
   reassembled in [t.scratch]. Either way the payload must end exactly
   where its length prefix says. *)
let read_block t ~off dst filled =
  let prefix = Bytes.create 8 in
  blit_pages t ~off prefix 8;
  let len = Int64.to_int (Bytes.get_int64_le prefix 0) in
  let start = off + 8 in
  if len <= 0 || len > t.size - start then
    corrupt "%s: bad block length %d at %d" t.path len off;
  let decode bytes pos =
    let r = Codec.reader_at bytes pos in
    let n = Column.decode_into r dst filled in
    if r.Codec.pos <> pos + len then
      corrupt "%s: block at %d is %d bytes, its prefix says %d" t.path off
        (r.Codec.pos - pos) len;
    n
  in
  let o = start mod page_size in
  if o + len <= page_size then
    Buffer_pool.with_pin t.pool ~path:t.path ~index:(start / page_size)
      ~size:page_size (fun page -> decode page o)
  else begin
    if Bytes.length t.scratch < len then
      t.scratch <- Bytes.create (max len (2 * Bytes.length t.scratch));
    blit_pages t ~off:start t.scratch len;
    decode t.scratch 0
  end

let read_run t schema run =
  if t.closed then invalid_arg "Spill: read after finish";
  let dst = Array.make run.tuples Column.placeholder in
  let filled =
    try
      io t.path (fun () ->
          (* the pool zero-fills a short last page, so a cut that only
             dropped zero bytes would read back clean: compare sizes *)
          let on_disk = (Unix.fstat t.fd).Unix.st_size in
          if on_disk < t.size then
            corrupt "%s: truncated to %d of %d bytes" t.path on_disk t.size;
          List.fold_left
            (fun filled off ->
              match read_block t ~off dst filled with
              | 0 -> corrupt "%s: empty block at %d" t.path off
              | n -> filled + n)
            0 (List.rev run.blocks))
    with
    | Codec.Corrupt msg -> corrupt "%s: %s" t.path msg
    | End_of_file -> corrupt "%s: truncated" t.path
  in
  if filled <> run.tuples then
    corrupt "%s: extents hold %d tuples, found %d" t.path run.tuples filled;
  try Relation.of_array schema dst
  with Invalid_argument msg -> corrupt "%s: %s" t.path msg

let read_left t i = read_run t t.left_schema t.left.(i)
let read_right t i = read_run t t.right_schema t.right.(i)
