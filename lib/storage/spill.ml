module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Metrics = Tpdb_obs.Metrics

let expansion_factor = 8
let sample_tuples = 64

let mean_tuple_bytes tuples =
  let n = ref 0 and bytes = ref 0 in
  (try
     List.iter
       (fun tp ->
         if !n >= sample_tuples then raise Exit;
         incr n;
         bytes := !bytes + Codec.tuple_size tp)
       tuples
   with Exit -> ());
  if !n = 0 then 0 else !bytes / !n

let estimate_bytes ?rows relation =
  let rows = Option.value rows ~default:(Relation.cardinality relation) in
  rows * mean_tuple_bytes (Relation.tuples relation) * expansion_factor

let partitions_for ~budget ~est =
  if budget <= 0 then invalid_arg "Spill.partitions_for: budget must be positive";
  let n = ((2 * est) + budget - 1) / budget in
  max 2 (min 256 n)

let pool_pages ~budget =
  max 16 (budget / (4 * Heap_file.page_size))

type t = {
  dir : string;
  partitions : int;
  left : string array;
  right : string array;
  pool : Buffer_pool.t;
  bytes : int;  (** encoded bytes written across all partition files *)
}

let partitions t = t.partitions
let bytes t = t.bytes
let pool t = t.pool
let dir t = t.dir

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

let cleanup t =
  let remove path = try Sys.remove path with Sys_error _ -> () in
  Array.iter remove t.left;
  Array.iter remove t.right;
  try Sys.rmdir t.dir with Sys_error _ -> ()

(* Report the pool's hit rate for this spilled join (permille), then
   drop the partition files. *)
let finish t =
  let hits, misses = Buffer_pool.stats t.pool in
  if hits + misses > 0 then
    Metrics.observe Metrics.Pool_hit_rate (hits * 1000 / (hits + misses));
  cleanup t

let partition_pair ?dir ~partitions ~pool_pages:capacity ~left_key ~right_key
    (lschema, lseq) (rschema, rseq) =
  if partitions < 1 then invalid_arg "Spill.partition_pair: partitions < 1";
  let dir = match dir with Some d -> d | None -> temp_dir () in
  let file side i = Filename.concat dir (Printf.sprintf "%s-%03d.tps" side i) in
  let writers side schema =
    Array.init partitions (fun i -> Heap_file.Writer.create (file side i) schema)
  in
  let lw = writers "l" lschema and rw = writers "r" rschema in
  let abort_all () =
    Array.iter Heap_file.Writer.abort lw;
    Array.iter Heap_file.Writer.abort rw;
    (try Sys.rmdir dir with Sys_error _ -> ())
  in
  try
    Seq.iter (fun tp -> Heap_file.Writer.add lw.(left_key tp) tp) lseq;
    Seq.iter (fun tp -> Heap_file.Writer.add rw.(right_key tp) tp) rseq;
    let bytes = ref 0 in
    for i = 0 to partitions - 1 do
      (* [close] writes each partition's last block: count after it *)
      Heap_file.Writer.close lw.(i);
      Heap_file.Writer.close rw.(i);
      let pair_bytes =
        Heap_file.Writer.bytes_written lw.(i) + Heap_file.Writer.bytes_written rw.(i)
      in
      bytes := !bytes + pair_bytes;
      Metrics.observe Metrics.Spill_partition_bytes pair_bytes
    done;
    Metrics.add Metrics.Spill_bytes !bytes;
    Metrics.add Metrics.Spill_partitions partitions;
    {
      dir;
      partitions;
      left = Array.init partitions (file "l");
      right = Array.init partitions (file "r");
      pool = Buffer_pool.create ~capacity;
      bytes = !bytes;
    }
  with e ->
    abort_all ();
    raise e

let read_left t i = Heap_file.read ~pool:t.pool t.left.(i)
let read_right t i = Heap_file.read ~pool:t.pool t.right.(i)
