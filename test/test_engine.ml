module Grouping = Tpdb_engine.Grouping
module Hash_partition = Tpdb_engine.Hash_partition
module Heap = Tpdb_engine.Heap

(* --- Grouping --- *)

let test_runs () =
  let runs =
    Grouping.runs ~same:(fun a b -> fst a = fst b)
      (List.to_seq [ (1, "a"); (1, "b"); (2, "c"); (1, "d") ])
    |> List.of_seq
  in
  Alcotest.(check int) "three runs" 3 (List.length runs);
  Alcotest.(check (list string)) "first run" [ "a"; "b" ]
    (List.map snd (List.nth runs 0));
  Alcotest.(check (list string)) "third run" [ "d" ]
    (List.map snd (List.nth runs 2))

let test_map_runs () =
  let doubled =
    Grouping.map_runs ~same:( = ) (fun run -> run @ run)
      (List.to_seq [ 1; 1; 2 ])
    |> List.of_seq
  in
  Alcotest.(check (list int)) "per-run rewrite" [ 1; 1; 1; 1; 2; 2 ] doubled

(* --- Hash partition --- *)

let test_hash_partition () =
  let part =
    Hash_partition.build ~key:String.length ~hash:Hashtbl.hash ~equal:Int.equal
      [ "aa"; "b"; "cc"; "ddd" ]
  in
  Alcotest.(check (list string)) "bucket order stable" [ "aa"; "cc" ]
    (Hash_partition.probe part 2);
  Alcotest.(check (list string)) "missing key" [] (Hash_partition.probe part 9);
  Alcotest.(check int) "distinct keys" 3 (Hash_partition.size part)

(* --- Heap --- *)

let test_heap_basics () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (Heap.size h);
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop" (Some 1) (Heap.pop h);
  Alcotest.(check (option int)) "pop duplicate" (Some 1) (Heap.pop h);
  Heap.clear h;
  Alcotest.(check (option int)) "cleared" None (Heap.pop h)

(* --- Pool --- *)

module Pool = Tpdb_engine.Pool
module Parallel = Tpdb_engine.Parallel

let test_pool_map () =
  let pool = Pool.create ~num_domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  Alcotest.(check (list int)) "input order preserved" [ 1; 4; 9; 16; 25 ]
    (Pool.map pool (fun x -> x * x) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list int)) "empty" [] (Pool.map pool succ []);
  Alcotest.(check (list int)) "singleton" [ 8 ] (Pool.map pool succ [ 7 ]);
  (* Reuse across batches, including batches larger than the pool. *)
  Alcotest.(check (list int)) "reuse"
    (List.init 40 (fun i -> i + 1))
    (Pool.map pool succ (List.init 40 Fun.id))

let test_pool_exception () =
  let pool = Pool.create ~num_domains:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (match
     Pool.map pool
       (fun x -> if x mod 2 = 0 then failwith (string_of_int x) else x)
       [ 1; 3; 4; 5; 6 ]
   with
  | exception Failure msg ->
      Alcotest.(check string) "earliest failing item wins" "4" msg
  | _ -> Alcotest.fail "exception not propagated");
  (* The pool survives a failed batch. *)
  Alcotest.(check (list int)) "usable after failure" [ 2; 3 ]
    (Pool.map pool succ [ 1; 2 ])

let test_pool_shutdown () =
  let pool = Pool.create ~num_domains:2 () in
  (* The worker count is clamped to [Domain.recommended_domain_count ()],
     so its exact value is machine-dependent. *)
  Alcotest.(check bool) "worker count clamped" true
    (let n = Pool.num_domains pool in
     n >= 1 && n <= 2);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* After shutdown the caller drains everything itself. *)
  Alcotest.(check (list int)) "sequential degradation" [ 2; 4; 6 ]
    (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.(check bool) "default pool exists" true
    (Pool.num_domains (Pool.default ()) >= 0)

(* --- Parallel --- *)

let test_shard2 () =
  let left = [ 0; 1; 2; 3; 4; 5; 6; 7 ] and right = [ 2; 4; 6; 8; 10 ] in
  let shards =
    Parallel.shard2 ~partitions:3 ~left_key:Fun.id ~right_key:Fun.id left right
  in
  Alcotest.(check int) "partition count" 3 (Array.length shards);
  let ls = Array.to_list shards |> List.concat_map fst in
  let rs = Array.to_list shards |> List.concat_map snd in
  Alcotest.(check (list int)) "left partitioned"
    (List.sort compare left) (List.sort compare ls);
  Alcotest.(check (list int)) "right partitioned"
    (List.sort compare right) (List.sort compare rs);
  (* Equal keys land in the same bucket on both sides, in input order. *)
  Array.iter
    (fun (l, r) ->
      List.iter
        (fun x ->
          if List.mem x l && not (List.mem x r) && List.mem x right then
            Alcotest.fail "equal keys split across partitions")
        l;
      Alcotest.(check (list int)) "left bucket order" (List.sort compare l) l;
      Alcotest.(check (list int)) "right bucket order" (List.sort compare r) r)
    shards

let test_merge_grouped () =
  (* Groups = equal first components; within-group order must survive. *)
  let compare_group (a, _) (b, _) = Int.compare a b in
  let merged =
    Parallel.merge_grouped ~compare_group
      [|
        [| (1, "a"); (1, "b"); (4, "c") |];
        [| (2, "d"); (5, "e"); (5, "f") |];
        [| (3, "g") |];
      |]
  in
  Alcotest.(check (list string)) "grouped merge"
    [ "a"; "b"; "d"; "g"; "c"; "e"; "f" ]
    (Array.to_list (Array.map snd merged));
  Alcotest.(check (list string)) "empty streams" []
    (Array.to_list
       (Array.map snd (Parallel.merge_grouped ~compare_group [| [||]; [||] |])))

let test_parallel_equi_join () =
  let pool = Pool.create ~num_domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* A toy "join": per-partition cross product of equal keys, swept in
     ascending key order — the contract merge_grouped needs. *)
  let sweep l r =
    List.concat_map
      (fun x -> List.filter_map (fun y -> if x = y then Some (x, y) else None) r)
      (List.sort compare l)
  in
  let left = [ 5; 1; 3; 2; 4 ] and right = [ 2; 3; 4; 5; 6 ] in
  let sequential = sweep left right in
  let merged =
    Parallel.equi_join ~pool ~partitions:4 ~left_key:Fun.id ~right_key:Fun.id
      ~sweep ~compare_group:(fun (a, _) (b, _) -> Int.compare a b) left right
  in
  Alcotest.(check (list (pair int int))) "partitioned = sequential" sequential
    merged

open QCheck2

let prop_heap_sorts =
  Test.make ~name:"heap pops in sorted order" ~count:200
    Gen.(list_size (int_range 0 50) (int_range (-100) 100))
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
      in
      drain [] = List.sort Int.compare xs)

let prop_runs_concat =
  Test.make ~name:"concatenating runs yields the input" ~count:200
    Gen.(list_size (int_range 0 30) (int_range 0 3))
    (fun xs ->
      List.concat (List.of_seq (Grouping.runs ~same:Int.equal (List.to_seq xs)))
      = xs)

let prop_runs_maximal =
  Test.make ~name:"adjacent runs have different keys" ~count:200
    Gen.(list_size (int_range 0 30) (int_range 0 3))
    (fun xs ->
      let runs = List.of_seq (Grouping.runs ~same:Int.equal (List.to_seq xs)) in
      let rec ok = function
        | a :: (b :: _ as rest) -> (
            match (List.rev a, b) with
            | last :: _, first :: _ -> last <> first && ok rest
            | _ -> false)
        | _ -> true
      in
      List.for_all (fun run -> run <> []) runs && ok runs)

(* The heap merge against the pairwise fold it replaced, on sorted
   streams whose keys tie within and across streams; the tags tell
   equal keys apart, so any reordering of a tie shows. *)
let prop_merge_grouped_is_fold =
  Test.make ~name:"merge_grouped = left fold of List.merge" ~count:500
    ~print:Print.(array (list (pair int int)))
    Gen.(
      map
        (fun lists ->
          Array.of_list
            (List.mapi
               (fun s keys ->
                 List.mapi (fun i k -> (k, (100 * s) + i)) (List.sort Int.compare keys))
               lists))
        (list_size (int_range 0 12)
           (list_size (int_range 0 20) (int_range 0 8))))
    (fun streams ->
      let compare_group (a, _) (b, _) = Int.compare a b in
      let fold = Array.fold_left (List.merge compare_group) [] streams in
      List.equal
        (fun (k, t) (k', t') -> k = k' && t = t')
        fold
        (Array.to_list
           (Parallel.merge_grouped ~compare_group
              (Array.map Array.of_list streams))))

let qcheck = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let suite =
  [
    Alcotest.test_case "grouping runs" `Quick test_runs;
    Alcotest.test_case "grouping map_runs" `Quick test_map_runs;
    Alcotest.test_case "hash partition" `Quick test_hash_partition;
    Alcotest.test_case "heap basics" `Quick test_heap_basics;
    Alcotest.test_case "pool map" `Quick test_pool_map;
    Alcotest.test_case "pool exception propagation" `Quick test_pool_exception;
    Alcotest.test_case "pool shutdown" `Quick test_pool_shutdown;
    Alcotest.test_case "shard2 partitioning" `Quick test_shard2;
    Alcotest.test_case "grouped k-way merge" `Quick test_merge_grouped;
    Alcotest.test_case "partitioned equi join" `Quick test_parallel_equi_join;
    qcheck prop_heap_sorts;
    qcheck prop_merge_grouped_is_fold;
    qcheck prop_runs_concat;
    qcheck prop_runs_maximal;
  ]
