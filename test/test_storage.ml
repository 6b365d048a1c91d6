module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Schema = Tpdb_relation.Schema
module Codec = Tpdb_storage.Codec
module Heap_file = Tpdb_storage.Heap_file
module Buffer_pool = Tpdb_storage.Buffer_pool
module Db = Tpdb_storage.Db

let iv = Interval.make

let with_temp_dir f =
  let dir = Filename.temp_file "tpdb_store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* --- Codec --- *)

let test_codec_scalars () =
  let buf = Buffer.create 64 in
  Codec.write_uint16 buf 0;
  Codec.write_uint16 buf 65535;
  Codec.write_int64 buf (-42);
  Codec.write_int64 buf max_int;
  Codec.write_float buf 0.084;
  Codec.write_string buf "hello, wörld";
  let r = Codec.reader (Buffer.to_bytes buf) in
  Alcotest.(check int) "u16 zero" 0 (Codec.read_uint16 r);
  Alcotest.(check int) "u16 max" 65535 (Codec.read_uint16 r);
  Alcotest.(check int) "negative int" (-42) (Codec.read_int64 r);
  Alcotest.(check int) "max_int" max_int (Codec.read_int64 r);
  Alcotest.(check (float 0.0)) "float bits" 0.084 (Codec.read_float r);
  Alcotest.(check string) "string" "hello, wörld" (Codec.read_string r)

let test_codec_values () =
  let values =
    [ Value.Null; Value.S "zurich"; Value.I (-7); Value.F 2.5; Value.S "" ]
  in
  let buf = Buffer.create 64 in
  List.iter (Codec.write_value buf) values;
  let r = Codec.reader (Buffer.to_bytes buf) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Value.to_string expected) true
        (Value.equal expected (Codec.read_value r)))
    values

let test_codec_tuple_roundtrip () =
  let tp =
    Tuple.make
      ~fact:(Fact.of_values [ Value.S "Ann"; Value.Null; Value.I 7 ])
      ~lineage:(Formula.of_string "a1 & !(b2 | b3)")
      ~iv:(iv 5 6) ~p:0.084
  in
  let buf = Buffer.create 64 in
  Codec.write_tuple buf tp;
  let back = Codec.read_tuple (Codec.reader (Buffer.to_bytes buf)) in
  Alcotest.(check bool) "roundtrip" true (Tuple.equal tp back);
  Alcotest.(check int) "tuple_size = encoded length" (Buffer.length buf)
    (Codec.tuple_size tp)

let test_codec_corruption () =
  let r = Codec.reader (Bytes.of_string "\002") in
  (match Codec.read_value r with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated int accepted");
  let r = Codec.reader (Bytes.of_string "\042") in
  match Codec.read_value r with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "unknown tag accepted"

let test_varint_edges () =
  let roundtrip n =
    let buf = Buffer.create 16 in
    Codec.write_varint buf n;
    Alcotest.(check int)
      (Printf.sprintf "varint %d" n)
      n
      (Codec.read_varint (Codec.reader (Buffer.to_bytes buf)))
  in
  List.iter roundtrip [ 0; 1; 127; 128; 16383; 16384; max_int ];
  (match Codec.write_varint (Buffer.create 4) (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative varint accepted");
  let zigzag n =
    let buf = Buffer.create 16 in
    Codec.write_zigzag buf n;
    Alcotest.(check int)
      (Printf.sprintf "zigzag %d" n)
      n
      (Codec.read_zigzag (Codec.reader (Buffer.to_bytes buf)))
  in
  List.iter zigzag [ 0; 1; -1; 63; -64; 64; max_int; min_int ];
  (* one byte for the small signed range the interval deltas live in *)
  let buf = Buffer.create 4 in
  Codec.write_zigzag buf (-64);
  Alcotest.(check int) "zigzag -64 is one byte" 1 (Buffer.length buf)

let column_roundtrip name tuples =
  let arr = Array.of_list tuples in
  let buf = Buffer.create 256 in
  Codec.Column.encode buf arr;
  let back = Codec.Column.decode (Codec.reader (Buffer.to_bytes buf)) in
  Alcotest.(check int) (name ^ ": count") (Array.length arr) (Array.length back);
  Array.iteri
    (fun i tp ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: tuple %d" name i)
        true (Tuple.equal tp back.(i)))
    arr

(* The degenerate corners the delta/varint layout has to survive:
   instant intervals [t, t+1) (duration encodes as varint 0), equal and
   descending starts (zigzag deltas of either sign), and certain/
   impossible probabilities 1.0 and 0.0 (raw IEEE bits, no scaling). *)
let test_column_block_edges () =
  let tp ?(lineage = "a1") ~ts ~te p values =
    Tuple.make
      ~fact:(Fact.of_values values)
      ~lineage:(Formula.of_string lineage) ~iv:(iv ts te) ~p
  in
  column_roundtrip "instants"
    [
      tp ~ts:7 ~te:8 1.0 [ Value.I 7 ];
      tp ~ts:7 ~te:8 0.0 [ Value.I 8 ];
      tp ~ts:0 ~te:1 0.5 [ Value.Null ];
      tp ~ts:6 ~te:7 1.0 [ Value.S "back one" ];
    ];
  column_roundtrip "mixed lineage and payload"
    [
      tp ~lineage:"a1 & !(b2 | b3)" ~ts:0 ~te:100 0.25 [ Value.F 2.5 ];
      tp ~lineage:"!x9" ~ts:50 ~te:51 1.0 [ Value.S ""; Value.I (-3) ];
    ];
  column_roundtrip "empty block" [];
  (* a duration beyond max_int: its varint carries the wrapped bits *)
  column_roundtrip "whole time line"
    [ tp ~ts:min_int ~te:max_int 0.5 [ Value.I 1 ]; tp ~ts:0 ~te:1 0.5 [] ]

(* --- Heap file --- *)

(* Every heap-file read goes through a buffer pool; a fresh one per read
   starts it cold. *)
let small_pool () = Buffer_pool.create ~capacity:4

let big_relation n =
  Relation.of_rows ~name:"big" ~columns:[ "K"; "Payload" ] ~tag:"big"
    (List.init n (fun i ->
         ( [ Printf.sprintf "k%d" (i mod 17); Printf.sprintf "payload-%06d" i ],
           iv i (i + 3),
           0.25 +. (0.5 *. float_of_int (i mod 3) /. 3.0) )))

let test_heap_file_roundtrip () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "big.tpr" in
      let r = big_relation 2_000 in
      Heap_file.write path r;
      Alcotest.(check bool) "multi-page" true (Heap_file.page_count ~pool:(small_pool ()) path > 5);
      let back = Heap_file.read ~pool:(small_pool ()) path in
      Alcotest.(check bool) "roundtrip" true (Relation.equal_as_sets r back);
      Alcotest.(check (list string))
        "schema" [ "K"; "Payload" ]
        (Schema.columns (Heap_file.schema_of ~pool:(small_pool ()) path)))

let test_heap_file_oversize () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "wide.tpr" in
      (* One tuple much larger than a page, surrounded by normal ones. *)
      let huge = String.make (3 * Heap_file.page_size) 'x' in
      let r =
        Relation.of_rows ~name:"wide" ~columns:[ "Blob" ] ~tag:"w"
          [
            ([ "small-1" ], iv 0 2, 0.5);
            ([ huge ], iv 1 5, 0.7);
            ([ "small-2" ], iv 4 9, 0.9);
          ]
      in
      Heap_file.write path r;
      let back = Heap_file.read ~pool:(small_pool ()) path in
      Alcotest.(check bool) "oversize roundtrip" true (Relation.equal_as_sets r back))

let test_heap_file_empty () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "empty.tpr" in
      let r = Relation.of_rows ~name:"empty" ~columns:[ "K" ] [] in
      Heap_file.write path r;
      Alcotest.(check int) "no data pages" 0 (Heap_file.page_count ~pool:(small_pool ()) path);
      Alcotest.(check int) "no tuples" 0 (Relation.cardinality (Heap_file.read ~pool:(small_pool ()) path)))

let test_heap_file_corrupt () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bad.tpr" in
      let oc = open_out_bin path in
      output_string oc "NOPE-this-is-not-a-heap-file";
      close_out oc;
      match Heap_file.read ~pool:(small_pool ()) path with
      | exception Heap_file.Corrupt _ -> ()
      | _ -> Alcotest.fail "bad magic accepted")

let test_heap_file_version_check () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "v.tpr" in
      Heap_file.write path (big_relation 10);
      (* Flip the version field (bytes 4-5 after the magic). *)
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let mutated = Bytes.of_string bytes in
      Bytes.set mutated 4 '\099';
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc mutated);
      match Heap_file.read ~pool:(small_pool ()) path with
      | exception Heap_file.Corrupt _ -> ()
      | _ -> Alcotest.fail "future format version accepted")

(* A record of exactly the v1 page payload capacity must fill its page
   without tripping the oversize path, and one byte more must take it —
   the two sides of the "tuple never spans pages" rule. *)
let test_heap_file_page_boundary () =
  let payload_capacity = Heap_file.page_size - 2 in
  let tuple_of_blob blob =
    Tuple.make
      ~fact:(Fact.of_values [ Value.S blob ])
      ~lineage:(Formula.of_string "a1") ~iv:(iv 0 5) ~p:0.5
  in
  (* The blob's length is the record size's only variable, one byte per
     character in this range: solve for an exact fill. *)
  let probe = Codec.tuple_size (tuple_of_blob (String.make 1000 'x')) in
  let exact = String.make (1000 + payload_capacity - probe) 'x' in
  let exact_tuple = tuple_of_blob exact in
  Alcotest.(check int)
    "record fills the payload exactly" payload_capacity
    (Codec.tuple_size exact_tuple);
  let roundtrip name tuples pages =
    with_temp_dir (fun dir ->
        let path = Filename.concat dir "b.tpr" in
        let r =
          Relation.of_tuples (Schema.make ~name:"b" [ "Blob" ]) tuples
        in
        Heap_file.write path r;
        Alcotest.(check int) (name ^ ": data pages") pages
          (Heap_file.page_count ~pool:(small_pool ()) path);
        Alcotest.(check bool)
          (name ^ ": roundtrip")
          true
          (Relation.equal_as_sets r (Heap_file.read ~pool:(small_pool ()) path)))
  in
  (* exact fill: one full page, the neighbour opens a second *)
  roundtrip "exact fill" [ exact_tuple; tuple_of_blob "next" ] 2;
  (* one byte over: the record no longer fits a page and must chain —
     u16 sentinel + u64 length + record = just over one page, so two
     pages for the chain plus one for the neighbour *)
  roundtrip "one byte over"
    [ tuple_of_blob (exact ^ "y"); tuple_of_blob "next" ]
    3

(* --- Spill file --- *)

module Spill = Tpdb_storage.Spill

let spill_input r = (Relation.schema r, List.to_seq (Relation.tuples r))

let spill_file spill =
  match Sys.readdir (Spill.dir spill) with
  | [| name |] -> Filename.concat (Spill.dir spill) name
  | names ->
      Alcotest.failf "expected one spill file, found %d" (Array.length names)

let same_tuples expected got =
  List.length expected = List.length got
  && List.for_all2 Test_codec.same_tuple expected got

let test_columnar_writer_roundtrip () =
  with_temp_dir (fun dir ->
      let r = big_relation 2_000 and s = big_relation 300 in
      let spill =
        Spill.partition_pair ~partitions:1 ~pool_pages:64
          ~left_key:(fun _ -> 0)
          ~right_key:(fun _ -> 0)
          (spill_input r) (spill_input s)
      in
      Fun.protect ~finally:(fun () -> Spill.finish spill) @@ fun () ->
      let left = Spill.read_left spill 0 in
      Alcotest.(check bool) "left roundtrip, in input order" true
        (same_tuples (Relation.tuples r) (Relation.tuples left));
      Alcotest.(check (list string))
        "schema" [ "K"; "Payload" ]
        (Schema.columns (Relation.schema left));
      Alcotest.(check bool) "right roundtrip" true
        (same_tuples (Relation.tuples s)
           (Relation.tuples (Spill.read_right spill 0)));
      (* the columnar blocks are denser than the row format *)
      let row = Filename.concat dir "row.tpr" in
      Heap_file.write row r;
      let size = (Unix.stat (spill_file spill)).Unix.st_size in
      Alcotest.(check int) "the file is the blocks, nothing else" size
        (Spill.bytes spill);
      let pages = (size + Heap_file.page_size - 1) / Heap_file.page_size in
      Alcotest.(check bool) "columnar is smaller" true
        (pages < Heap_file.page_count ~pool:(small_pool ()) row);
      (* a pooled sequential scan earns hits on the boundary pages
         adjacent blocks share *)
      let hits, misses = Buffer_pool.stats (Spill.pool spill) in
      Alcotest.(check bool) "cold columnar scan still hits" true (hits > 0);
      Alcotest.(check int) "every page missed exactly once" pages misses)

(* The partitioner consumes each input sequence once, lazily, and the
   spill's cleanup is idempotent. *)
let test_columnar_writer_streams () =
  let r = big_relation 700 in
  let forced = ref 0 in
  let counted =
    Seq.map
      (fun tp ->
        incr forced;
        tp)
      (List.to_seq (Relation.tuples r))
  in
  let spill =
    Spill.partition_pair ~partitions:3 ~pool_pages:16
      ~left_key:(fun tp -> Fact.hash (Tuple.fact tp) land 0xFFFF mod 3)
      ~right_key:(fun _ -> 2)
      (Relation.schema r, counted)
      (spill_input (Fixtures.relation_b ()))
  in
  Alcotest.(check int) "each input tuple forced once" 700 !forced;
  Alcotest.(check bool) "bytes accounted" true (Spill.bytes spill > 0);
  let back =
    List.concat_map
      (fun i -> Relation.tuples (Spill.read_left spill i))
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "every tuple read back" true
    (Relation.equal_as_sets r (Relation.of_tuples (Relation.schema r) back));
  let dir = Spill.dir spill in
  Spill.finish spill;
  Spill.finish spill;
  Spill.cleanup spill;
  Alcotest.(check bool) "directory gone" false (Sys.file_exists dir);
  match Spill.read_left spill 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read after finish accepted"

(* --- Buffer pool --- *)

let test_pinned_eviction () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "pin.tpr" in
      Heap_file.write path (big_relation 500);
      let pool = Buffer_pool.create ~capacity:2 in
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Buffer_pool.attach pool ~path fd;
      let pinned = Buffer_pool.pin pool ~path ~index:0 ~size:Heap_file.page_size in
      Alcotest.(check bool) "pinned bytes" true (Bytes.length pinned > 0);
      ignore (Buffer_pool.pin pool ~path ~index:1 ~size:Heap_file.page_size);
      (* every resident page pinned: the next distinct read cannot evict
         and must surface the typed error with its diagnosis payload *)
      (match
         Buffer_pool.read_page pool ~path ~index:2 ~size:Heap_file.page_size
       with
      | exception Buffer_pool.Pinned_eviction { capacity; pinned; index; _ } ->
          Alcotest.(check int) "capacity" 2 capacity;
          Alcotest.(check int) "pinned" 2 pinned;
          Alcotest.(check int) "victimless page" 2 index
      | _ -> Alcotest.fail "eviction broke a pin");
      (* releasing one pin unblocks the read *)
      Buffer_pool.unpin pool ~path ~index:1;
      ignore (Buffer_pool.read_page pool ~path ~index:2 ~size:Heap_file.page_size);
      Alcotest.(check bool) "capacity still bounds cache" true
        (Buffer_pool.cached_pages pool <= 2);
      (* with_pin releases on exit, even on raise *)
      (match
         Buffer_pool.with_pin pool ~path ~index:2 ~size:Heap_file.page_size
           (fun _ -> failwith "decode failed")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "with_pin swallowed the exception");
      ignore (Buffer_pool.read_page pool ~path ~index:3 ~size:Heap_file.page_size);
      (match Buffer_pool.unpin pool ~path ~index:3 with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "unpin of unpinned page accepted");
      (* detached: resident pages still hit, a miss has nothing to load from *)
      Buffer_pool.detach pool ~path;
      ignore (Buffer_pool.read_page pool ~path ~index:3 ~size:Heap_file.page_size);
      match Buffer_pool.read_page pool ~path ~index:4 ~size:Heap_file.page_size with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "a detached path loaded a page")

let test_buffer_pool () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "pooled.tpr" in
      Heap_file.write path (big_relation 500);
      (* Pool larger than the file: the second scan is all hits. *)
      let pool = Buffer_pool.create ~capacity:64 in
      let first = Heap_file.read ~pool path in
      let hits_cold, misses_cold = Buffer_pool.stats pool in
      Alcotest.(check bool) "cold read misses" true (misses_cold > 0);
      Alcotest.(check int) "no hits yet" 0 hits_cold;
      let again = Heap_file.read ~pool path in
      let hits, misses_warm = Buffer_pool.stats pool in
      Alcotest.(check int) "warm scan is all hits" misses_cold hits;
      Alcotest.(check int) "no new misses" misses_cold misses_warm;
      Alcotest.(check bool) "reads agree" true (Relation.equal_as_sets first again);
      (* Pool smaller than the file: sequential flooding means zero hits,
         but the cache never exceeds its capacity. *)
      let tiny = Buffer_pool.create ~capacity:2 in
      ignore (Heap_file.read ~pool:tiny path);
      ignore (Heap_file.read ~pool:tiny path);
      let tiny_hits, _ = Buffer_pool.stats tiny in
      Alcotest.(check int) "sequential flooding: no hits" 0 tiny_hits;
      Alcotest.(check bool) "capacity bounds cache" true
        (Buffer_pool.cached_pages tiny <= 2))

let test_buffer_pool_invalidate () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "mut.tpr" in
      let pool = Buffer_pool.create ~capacity:16 in
      Heap_file.write path (big_relation 50);
      let v1 = Heap_file.read ~pool path in
      Heap_file.write path (big_relation 60);
      Buffer_pool.invalidate pool ~path;
      let v2 = Heap_file.read ~pool path in
      Alcotest.(check int) "first version" 50 (Relation.cardinality v1);
      Alcotest.(check int) "fresh pages after invalidate" 60
        (Relation.cardinality v2))

(* --- Db --- *)

let test_db () =
  with_temp_dir (fun dir ->
      let db = Db.open_ (Filename.concat dir "warehouse") in
      Alcotest.(check (list string)) "empty" [] (Db.list db);
      Db.save db (Fixtures.relation_a ());
      Db.save db (Fixtures.relation_b ());
      Alcotest.(check (list string)) "listed" [ "a"; "b" ] (Db.list db);
      Alcotest.(check bool) "exists" true (Db.exists db "a");
      let a = Db.load db "a" in
      Alcotest.(check bool) "load = original" true
        (Relation.equal_as_sets (Fixtures.relation_a ()) a);
      (* Overwrite goes through pool invalidation. *)
      Db.save db (Relation.of_rows ~name:"a" ~columns:[ "Name"; "Loc" ] []);
      Alcotest.(check int) "overwritten" 0 (Relation.cardinality (Db.load db "a"));
      Db.drop db "a";
      Alcotest.(check bool) "dropped" false (Db.exists db "a");
      Db.drop db "a";
      (match Db.load db "a" with
      | exception Not_found -> ()
      | _ -> Alcotest.fail "loaded dropped relation");
      (* cleanup nested dir for with_temp_dir *)
      Array.iter
        (fun f -> Sys.remove (Filename.concat (Db.dir db) f))
        (Sys.readdir (Db.dir db));
      Sys.rmdir (Db.dir db))

(* [Db.load] reads through the pool on one descriptor it closes however
   the read ends: the process holds as many descriptors after a load,
   a load of a corrupt file and a drop as before them. *)
let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_db_load_holds_one_descriptor () =
  with_temp_dir (fun dir ->
      let db = Db.open_ ~pool_pages:4 (Filename.concat dir "fds") in
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f -> Sys.remove (Filename.concat (Db.dir db) f))
            (Sys.readdir (Db.dir db));
          Sys.rmdir (Db.dir db))
      @@ fun () ->
      let r = big_relation 2_000 in
      Db.save db r;
      let before = open_fds () in
      let back = Db.load db "big" in
      Alcotest.(check int) "no descriptor left by a load" before (open_fds ());
      Alcotest.(check bool) "rows round-trip unchanged" true
        (same_tuples (Relation.tuples r) (Relation.tuples back));
      let _, misses = Buffer_pool.stats (Db.pool db) in
      Alcotest.(check bool) "the load missed pages" true (misses > 4);
      (* a copy whose header claims pages the file no longer has *)
      Db.save db (Relation.of_tuples (Schema.make ~name:"cut" [ "K"; "Payload" ])
                    (Relation.tuples r));
      let cut = Filename.concat (Db.dir db) "cut.tpr" in
      Unix.truncate cut (2 * Heap_file.page_size);
      (match Db.load db "cut" with
      | exception Heap_file.Corrupt _ -> ()
      | _ -> Alcotest.fail "truncated heap file loaded");
      Alcotest.(check int) "no descriptor left by a corrupt load" before
        (open_fds ());
      Db.drop db "big";
      Db.drop db "cut";
      Alcotest.(check int) "no descriptor left by a drop" before (open_fds ()))

(* --- properties --- *)

module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let prop_heap_file_roundtrip =
  Test.make ~name:"heap file round-trips random relations" ~count:60
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    (fun r ->
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "r.tpr" in
          Heap_file.write path r;
          Relation.equal_as_sets r (Heap_file.read ~pool:(small_pool ()) path)))

(* Random blocks biased toward the delta codec's degenerate corners:
   instant intervals [t, t+1), negative and descending start points,
   certain/impossible probabilities, and every lineage constructor —
   shapes the workload-shaped [Tp_gen] relations rarely reach. *)
let degenerate_block_gen =
  let open QCheck2.Gen in
  let var_f =
    let* rel = oneofl [ "d"; "e" ] in
    let* idx = int_range 0 3 in
    return (Formula.var (Tpdb_lineage.Var.make rel idx))
  in
  let lineage_gen =
    let* v = var_f in
    let* w = var_f in
    oneofl
      [
        v;
        Formula.neg v;
        Formula.conj [ v; w ];
        Formula.disj [ v; Formula.neg w ];
        Formula.true_;
        Formula.false_;
      ]
  in
  let tuple_gen =
    let* ts = int_range (-30) 30 in
    let* duration = frequency [ (3, return 1); (1, int_range 2 10) ] in
    let* p =
      frequency
        [ (1, return 0.0); (1, return 1.0); (2, float_bound_inclusive 1.0) ]
    in
    let* lineage = lineage_gen in
    let* value =
      oneof
        [
          return Value.Null;
          map (fun i -> Value.I i) small_signed_int;
          map (fun f -> Value.F f) (float_bound_inclusive 8.0);
          map (fun s -> Value.S s) (string_size (int_range 0 6));
        ]
    in
    return
      (Tuple.make
         ~fact:(Fact.of_values [ value ])
         ~lineage
         ~iv:(iv ts (ts + duration))
         ~p)
  in
  list_size (int_range 0 40) tuple_gen

let prop_column_block_roundtrip =
  Test.make ~name:"columnar blocks round-trip degenerate tuples" ~count:200
    ~print:(fun tuples ->
      String.concat "\n" (List.map Tuple.to_string tuples))
    degenerate_block_gen
    (fun tuples ->
      let arr = Array.of_list tuples in
      let buf = Buffer.create 256 in
      Codec.Column.encode buf arr;
      let back = Codec.Column.decode (Codec.reader (Buffer.to_bytes buf)) in
      Array.length back = Array.length arr
      && Array.for_all2 Tuple.equal arr back)

let prop_join_results_survive_storage =
  Test.make ~name:"derived relations survive storage" ~count:40
    ~print:Tp_gen.print_triple
    (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      let result = Tpdb_joins.Nj.join ~kind:Tpdb_joins.Nj.Left ~theta r s in
      with_temp_dir (fun dir ->
          let path = Filename.concat dir "q.tpr" in
          Heap_file.write path result;
          Relation.equal_as_sets result (Heap_file.read ~pool:(small_pool ()) path)))

(* --- Spill temp-dir claiming ----------------------------------------

   Regression for the temp_file → remove → mkdir race: between the
   remove and the mkdir another spilling join could take the name and
   the two joins would interleave partition files in one directory.
   The fix makes directory creation itself the claim, so no two live
   spills may ever observe the same directory. *)

let small_spill () =
  Tpdb_storage.Spill.partition_pair ~partitions:2 ~pool_pages:16
    ~left_key:(fun _ -> 0)
    ~right_key:(fun _ -> 1)
    (spill_input (Fixtures.relation_a ()))
    (spill_input (Fixtures.relation_b ()))

let test_spill_concurrent_joins_roundtrip () =
  let s1 = small_spill () in
  let s2 = small_spill () in
  Alcotest.(check bool)
    "two live spills never share a directory" true
    (Tpdb_storage.Spill.dir s1 <> Tpdb_storage.Spill.dir s2);
  Alcotest.(check int) "s1 left partition 0" 2
    (Relation.cardinality (Tpdb_storage.Spill.read_left s1 0));
  Alcotest.(check int) "s1 left partition 1 empty" 0
    (Relation.cardinality (Tpdb_storage.Spill.read_left s1 1));
  Alcotest.(check int) "s2 right partition 1" 3
    (Relation.cardinality (Tpdb_storage.Spill.read_right s2 1));
  Tpdb_storage.Spill.finish s1;
  Tpdb_storage.Spill.finish s2;
  Alcotest.(check bool) "finish removes s1's directory" false
    (Sys.file_exists (Tpdb_storage.Spill.dir s1));
  Alcotest.(check bool) "finish removes s2's directory" false
    (Sys.file_exists (Tpdb_storage.Spill.dir s2))

let test_spill_dirs_never_collide () =
  let live = Hashtbl.create 16 in
  let mutex = Mutex.create () in
  let collisions = ref 0 and claims = ref 0 in
  let worker () =
    for _ = 1 to 25 do
      let spill = small_spill () in
      let dir = Tpdb_storage.Spill.dir spill in
      Mutex.lock mutex;
      incr claims;
      if Hashtbl.mem live dir then incr collisions
      else Hashtbl.add live dir ();
      Mutex.unlock mutex;
      Thread.yield ();
      Tpdb_storage.Spill.finish spill;
      Mutex.lock mutex;
      Hashtbl.remove live dir;
      Mutex.unlock mutex
    done
  in
  let threads = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "all claims happened" 100 !claims;
  Alcotest.(check int) "no two concurrent spills shared a directory" 0
    !collisions

let test_spill_exception_removes_directory () =
  let spill_dirs () =
    Sys.readdir (Filename.get_temp_dir_name ())
    |> Array.to_list
    |> List.filter (fun n ->
           String.length n >= 10 && String.sub n 0 10 = "tpdb-spill")
    |> List.sort compare
  in
  let before = spill_dirs () in
  (match
     Tpdb_storage.Spill.partition_pair ~partitions:2 ~pool_pages:16
       ~left_key:(fun _ -> failwith "left key exploded")
       ~right_key:(fun _ -> 0)
       (spill_input (Fixtures.relation_a ()))
       (spill_input (Fixtures.relation_a ()))
   with
  | _ -> Alcotest.fail "expected the left_key exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check (list string))
    "no partition directory leaks on the exception path" before
    (spill_dirs ())

(* Regression: the spill counters were read before [close] wrote each
   partition's last block, so they missed it — and read 0 whenever every
   partition fit in one block, as here. The expected figure is
   recomputed from the codec: an 8-byte length prefix plus the encoded
   block, per block of at most 512 tuples. *)
let test_spill_bytes_counted () =
  let block_bytes tuples =
    let rec go acc = function
      | [] -> acc
      | tuples ->
          let block = List.filteri (fun i _ -> i < 512) tuples in
          let rest = List.filteri (fun i _ -> i >= 512) tuples in
          let buf = Buffer.create 4096 in
          Codec.Column.encode buf (Array.of_list block);
          go (acc + 8 + Buffer.length buf) rest
    in
    go 0 tuples
  in
  let expected =
    block_bytes (Relation.tuples (Fixtures.relation_a ()))
    + block_bytes (Relation.tuples (Fixtures.relation_b ()))
  in
  let metrics = Tpdb_obs.Metrics.create () in
  Tpdb_obs.Metrics.install metrics;
  let spill = Fun.protect ~finally:Tpdb_obs.Metrics.uninstall small_spill in
  Tpdb_storage.Spill.finish spill;
  Alcotest.(check bool) "blocks were written" true (expected > 0);
  Alcotest.(check int) "Spill_bytes" expected
    (Tpdb_obs.Metrics.get metrics Tpdb_obs.Metrics.Spill_bytes);
  Alcotest.(check int) "Spill.bytes" expected (Tpdb_storage.Spill.bytes spill);
  Alcotest.(check int) "Spill_partition_bytes sums to the same" expected
    (Tpdb_obs.Metrics.dist_stats metrics Tpdb_obs.Metrics.Spill_partition_bytes)
      .Tpdb_obs.Metrics.sum


(* --- spill round trip, damage and leaks ------------------------------- *)

(* A spill input row: (partition, payload width, start, duration, p,
   lineage index). Wide payloads make blocks that straddle pages. *)
let spill_tuple name (part, width, ts, d, p, idx) =
  Tuple.make
    ~fact:
      (Fact.of_values
         [
           Value.I part;
           Value.S (String.init width (fun i -> Char.chr (97 + ((i + idx) mod 26))));
         ])
    ~lineage:(Formula.var (Tpdb_lineage.Var.make name idx))
    ~iv:(iv ts (ts + d)) ~p

let spill_part tp =
  match Fact.get (Tuple.fact tp) 0 with
  | Value.I part -> part
  | _ -> invalid_arg "spill_part"

let spill_relation name rows =
  Relation.of_tuples
    (Schema.make ~name [ "P"; "Payload" ])
    (List.map (spill_tuple name) rows)

let spill_case_gen =
  let open QCheck2.Gen in
  let* partitions = int_range 1 40 in
  let* used = int_range 1 partitions in
  let* heavy = bool in
  let row =
    let* part =
      if heavy then frequency [ (1, return 0); (1, int_bound (used - 1)) ]
      else int_bound (used - 1)
    in
    let* width = frequency [ (3, int_range 0 12); (1, int_range 100 900) ] in
    let* ts = int_range (-100) 100 in
    let* d = int_range 1 20 in
    let* p = float_bound_inclusive 1.0 in
    let* idx = int_bound 10_000 in
    return (part, width, ts, d, p, idx)
  in
  let side =
    let* n =
      frequency [ (2, int_range 0 50); (2, int_range 50 600); (1, int_range 600 1500) ]
    in
    list_repeat n row
  in
  let* left = side in
  let* right = side in
  return (partitions, spill_relation "l" left, spill_relation "r" right)

let spill_of ?(pool_pages = 16) ~partitions r s =
  Spill.partition_pair ~partitions ~pool_pages ~left_key:spill_part
    ~right_key:spill_part (spill_input r) (spill_input s)

let prop_spill_roundtrip =
  Test.make ~name:"spill round-trips random relations" ~count:30
    ~print:(fun (partitions, r, s) ->
      Printf.sprintf "%d partitions, %d left and %d right tuples" partitions
        (Relation.cardinality r) (Relation.cardinality s))
    spill_case_gen
    (fun (partitions, r, s) ->
      let spill = spill_of ~partitions r s in
      Fun.protect ~finally:(fun () -> Spill.finish spill) @@ fun () ->
      let side read rel i =
        same_tuples
          (List.filter (fun tp -> spill_part tp = i) (Relation.tuples rel))
          (Relation.tuples (read spill i))
      in
      List.for_all
        (fun i -> side Spill.read_left r i && side Spill.read_right s i)
        (List.init partitions Fun.id)
      && Buffer_pool.pinned_pages (Spill.pool spill) = 0)

(* Reads every partition of both sides; [Ok ()] or the first exception. *)
let read_everything spill =
  match
    for i = 0 to Spill.partitions spill - 1 do
      ignore (Spill.read_left spill i);
      ignore (Spill.read_right spill i)
    done
  with
  | () -> Ok ()
  | exception e -> Error e

let damage_input () =
  let rows name n =
    List.init n (fun i ->
        (i mod 3, (if i mod 5 = 0 then 300 else i mod 9), i mod 50, 1 + (i mod 7),
         float_of_int (i mod 11) /. 10.0, i))
    |> spill_relation name
  in
  (rows "l" 1200, rows "r" 400)

let test_spill_damage () =
  let r, s = damage_input () in
  let corrupt = function
    | Heap_file.Corrupt _ | Codec.Corrupt _ -> true
    | _ -> false
  in
  let with_damaged damage check =
    let spill = spill_of ~partitions:3 r s in
    Fun.protect ~finally:(fun () -> Spill.finish spill) @@ fun () ->
    let path = spill_file spill in
    damage path (Unix.stat path).Unix.st_size;
    check (read_everything spill)
  in
  (* any cut, down to an empty file, is caught *)
  List.iter
    (fun cut ->
      with_damaged
        (fun path size -> Unix.truncate path (max 0 (cut size)))
        (function
          | Ok () -> Alcotest.fail "truncated spill file read back clean"
          | Error e when corrupt e -> ()
          | Error e -> Alcotest.failf "truncation raised %s" (Printexc.to_string e)))
    [ (fun _ -> 0); (fun _ -> 1); (fun _ -> 8); (fun _ -> 9); (fun n -> n / 3);
      (fun n -> n / 2); (fun n -> n - 4096); (fun n -> n - 1) ];
  (* overwritten bytes either decode (a payload byte changed) or raise
     Corrupt, never another exception *)
  let rng = Random.State.make [| 18 |] in
  for _ = 1 to 120 do
    let hits = 1 + Random.State.int rng 6 in
    let edits =
      List.init hits (fun _ -> (Random.State.float rng 1.0, Random.State.int rng 256))
    in
    with_damaged
      (fun path size ->
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        List.iter
          (fun (at, byte) ->
            ignore (Unix.lseek fd (int_of_float (at *. float_of_int size)) Unix.SEEK_SET);
            ignore (Unix.write fd (Bytes.make 1 (Char.chr byte)) 0 1))
          edits)
      (function
        | Ok () -> ()
        | Error e when corrupt e -> ()
        | Error e -> Alcotest.failf "damaged spill raised %s" (Printexc.to_string e))
  done

let open_fds () =
  match Sys.readdir "/proc/self/fd" with
  | fds -> Some (Array.length fds)
  | exception Sys_error _ -> None

let spill_dirs () =
  Sys.readdir (Filename.get_temp_dir_name ())
  |> Array.to_list
  |> List.filter (String.starts_with ~prefix:"tpdb-spill-")
  |> List.sort String.compare

let test_spill_no_leaks () =
  let r, s = damage_input () in
  let fds = open_fds () and dirs = spill_dirs () in
  let check what =
    Alcotest.(check (option int)) (what ^ ": descriptors") fds (open_fds ());
    Alcotest.(check (list string)) (what ^ ": directories") dirs (spill_dirs ())
  in
  let spill = spill_of ~partitions:3 r s in
  ignore (read_everything spill);
  Spill.finish spill;
  check "after finish";
  Spill.cleanup (spill_of ~partitions:3 r s);
  check "after cleanup";
  let raising_after n =
    let seen = ref 0 in
    fun tp ->
      incr seen;
      if !seen > n then failwith "key exploded" else spill_part tp
  in
  List.iter
    (fun (left_key, right_key) ->
      match
        Spill.partition_pair ~partitions:3 ~pool_pages:16 ~left_key ~right_key
          (spill_input r) (spill_input s)
      with
      | _ -> Alcotest.fail "expected the key exception to propagate"
      | exception Failure _ -> ())
    [ (raising_after 0, spill_part); (raising_after 1100, spill_part);
      (spill_part, raising_after 300) ];
  check "after key-function exceptions";
  let spill = spill_of ~partitions:3 r s in
  Unix.truncate (spill_file spill) 100;
  (match read_everything spill with
  | Error (Heap_file.Corrupt _) -> ()
  | _ -> Alcotest.fail "expected Corrupt");
  Spill.finish spill;
  check "after a corrupt read"

(* The pool against a reference LRU: a list of resident pages, most
   recent first, with pin counts. Same hits, same misses, the same
   Pinned_eviction (payload included), the same unpin errors, and every
   page read returns its own contents. *)
type pool_op = Read of int | Pin of int | Unpin of int

let pool_pages_in_file = 10

let prop_pool_is_lru =
  let open QCheck2.Gen in
  let op =
    let* page = int_bound (pool_pages_in_file - 1) in
    frequency
      [ (6, return (Read page)); (2, return (Pin page)); (2, return (Unpin page)) ]
  in
  Test.make ~name:"buffer pool evicts like a reference LRU" ~count:300
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity %d: %s" capacity
        (String.concat " "
           (List.map
              (function
                | Read i -> Printf.sprintf "r%d" i
                | Pin i -> Printf.sprintf "p%d" i
                | Unpin i -> Printf.sprintf "u%d" i)
              ops)))
    (pair (int_range 1 6) (list_size (int_range 0 120) op))
    (fun (capacity, ops) ->
      with_temp_dir @@ fun dir ->
      let path = Filename.concat dir "pages" in
      Out_channel.with_open_bin path (fun oc ->
          for i = 0 to pool_pages_in_file - 1 do
            output_string oc (String.make Heap_file.page_size (Char.chr (65 + i)))
          done);
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      let pool = Buffer_pool.create ~capacity in
      Buffer_pool.attach pool ~path fd;
      let resident = ref [] (* (page, pins), most recent first *)
      and hits = ref 0
      and misses = ref 0 in
      let model_access page =
        match List.assoc_opt page !resident with
        | Some pins ->
            incr hits;
            resident := (page, pins) :: List.remove_assoc page !resident;
            `Ok
        | None -> (
            incr misses;
            if List.length !resident < capacity then begin
              resident := (page, 0) :: !resident;
              `Ok
            end
            else
              match List.rev (List.filter (fun (_, pins) -> pins = 0) !resident) with
              | (victim, _) :: _ ->
                  resident := (page, 0) :: List.remove_assoc victim !resident;
                  `Ok
              | [] -> `Pinned (List.length !resident))
      in
      let pool_access f page =
        match f pool ~path ~index:page ~size:Heap_file.page_size with
        | bytes ->
            if Bytes.get bytes 0 <> Char.chr (65 + page)
               || Bytes.get bytes (Heap_file.page_size - 1) <> Char.chr (65 + page)
            then Test.fail_reportf "page %d came back with other contents" page;
            `Ok
        | exception Buffer_pool.Pinned_eviction { index; capacity = c; pinned; _ } ->
            if index <> page || c <> capacity then Test.fail_report "eviction payload";
            `Pinned pinned
      in
      let step op =
        let expected, got =
          match op with
          | Read page -> (model_access page, pool_access Buffer_pool.read_page page)
          | Pin page ->
              let m = model_access page in
              (match m with
              | `Ok ->
                  resident :=
                    List.map
                      (fun (p, pins) -> if p = page then (p, pins + 1) else (p, pins))
                      !resident
              | `Pinned _ -> ());
              (m, pool_access Buffer_pool.pin page)
          | Unpin page ->
              let m =
                match List.assoc_opt page !resident with
                | Some pins when pins > 0 ->
                    resident :=
                      List.map
                        (fun (p, n) -> if p = page then (p, n - 1) else (p, n))
                        !resident;
                    `Ok
                | _ -> `Pinned (-1)
              in
              let g =
                match Buffer_pool.unpin pool ~path ~index:page with
                | () -> `Ok
                | exception Invalid_argument _ -> `Pinned (-1)
              in
              (m, g)
        in
        expected = got
        && Buffer_pool.stats pool = (!hits, !misses)
        && Buffer_pool.cached_pages pool = List.length !resident
        && Buffer_pool.pinned_pages pool
           = List.length (List.filter (fun (_, n) -> n > 0) !resident)
      in
      List.for_all step ops)

let suite =
  [
    Alcotest.test_case "codec scalars" `Quick test_codec_scalars;
    Alcotest.test_case "codec values" `Quick test_codec_values;
    Alcotest.test_case "codec tuple round-trip" `Quick test_codec_tuple_roundtrip;
    Alcotest.test_case "codec corruption" `Quick test_codec_corruption;
    Alcotest.test_case "varint and zigzag edges" `Quick test_varint_edges;
    Alcotest.test_case "columnar block edge cases" `Quick test_column_block_edges;
    Alcotest.test_case "heap file round-trip" `Quick test_heap_file_roundtrip;
    Alcotest.test_case "heap file page boundary" `Quick test_heap_file_page_boundary;
    Alcotest.test_case "columnar file round-trip" `Quick test_columnar_writer_roundtrip;
    Alcotest.test_case "columnar writer streams" `Quick test_columnar_writer_streams;
    Alcotest.test_case "heap file oversize chain" `Quick test_heap_file_oversize;
    Alcotest.test_case "heap file empty" `Quick test_heap_file_empty;
    Alcotest.test_case "heap file corruption" `Quick test_heap_file_corrupt;
    Alcotest.test_case "heap file version check" `Quick test_heap_file_version_check;
    Alcotest.test_case "buffer pool" `Quick test_buffer_pool;
    Alcotest.test_case "buffer pool invalidation" `Quick test_buffer_pool_invalidate;
    Alcotest.test_case "pinned eviction" `Quick test_pinned_eviction;
    Alcotest.test_case "db directory" `Quick test_db;
    Alcotest.test_case "db load holds one descriptor" `Quick
      test_db_load_holds_one_descriptor;
    Alcotest.test_case "concurrent spills use private directories" `Quick
      test_spill_concurrent_joins_roundtrip;
    Alcotest.test_case "spill temp-dir claims never collide" `Quick
      test_spill_dirs_never_collide;
    Alcotest.test_case "spill exception removes its directory" `Quick
      test_spill_exception_removes_directory;
    Alcotest.test_case "spill counters include the last block" `Quick
      test_spill_bytes_counted;
    qtest prop_heap_file_roundtrip;
    qtest prop_column_block_roundtrip;
    qtest prop_join_results_survive_storage;
    Alcotest.test_case "spill damage raises Corrupt" `Quick test_spill_damage;
    Alcotest.test_case "spill leaks no descriptors or directories" `Quick
      test_spill_no_leaks;
    qtest prop_spill_roundtrip;
    qtest prop_pool_is_lru;
  ]
