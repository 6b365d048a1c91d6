(* No request path forces a minor collection. On OCaml 5, [Array.make n x]
   (and [init], [map], [of_list], [of_seq], which build on it) with more
   than 256 elements runs a stop-the-world minor collection when [x] is
   still in the minor heap. Each shape below runs once to warm up — a
   module-level placeholder is young until the first minor collection —
   then once counted by the runtime's event ring. *)

module Csv = Tpdb_relation.Csv
module Relation = Tpdb_relation.Relation
module Fact = Tpdb_relation.Fact
module Datasets = Tpdb_workload.Datasets
module Catalog = Tpdb_query.Catalog
module Parser = Tpdb_query.Parser
module Planner = Tpdb_query.Planner
module Nj = Tpdb_joins.Nj
module Theta = Tpdb_windows.Theta
module Gc_events = Tpdb_obs.Gc_events
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var
module Prob = Tpdb_lineage.Prob
module Parallel = Tpdb_engine.Parallel
module Server = Tpdb_server_lib.Server
module Client = Tpdb_server_lib.Client

let render rel = Format.asprintf "%a" Relation.pp rel

let check_no_forced name shape =
  ignore (shape ());
  let (), counts = Gc_events.count (fun () -> ignore (shape ())) in
  Alcotest.(check int) (name ^ ": events lost") 0 counts.Gc_events.lost;
  Alcotest.(check int)
    (Printf.sprintf "%s: forced minor collections (of %d)" name counts.Gc_events.minor)
    0 counts.Gc_events.forced_make_vect

let with_csv_pair (r, s) f =
  let save rel =
    let path = Filename.temp_file "tpdb_gc" ".csv" in
    Csv.save path rel;
    path
  in
  let rpath = save r and spath = save s in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ rpath; spath ]) (fun () -> f rpath spath)

let catalog rels =
  let c = Catalog.create () in
  List.iter (Catalog.register c) rels;
  c

let run_sql c sql = render (Planner.run (Planner.plan ~sanitize:false c (Parser.parse sql)))

let four = [ "ANTIJOIN"; "LEFT TPJOIN"; "RIGHT TPJOIN"; "FULL TPJOIN" ]

let test_csv_load () =
  with_csv_pair (Datasets.Webkit.pair ~seed:7 4000) @@ fun rpath spath ->
  check_no_forced "Csv.load" (fun () -> (Csv.load ~name:"r" rpath, Csv.load ~name:"s" spath))

let test_meteo_round () =
  let c = catalog (let r, s = Datasets.Meteo.pair ~seed:7 500 in [ r; s ]) in
  check_no_forced "Meteo round" (fun () ->
      List.map (fun op -> run_sql c (Printf.sprintf "SELECT * FROM r %s s ON r.Metric = s.Metric" op)) four)

let test_spilled_join () =
  let r, s = Datasets.Webkit.pair ~seed:7 4000 in
  let options = Nj.options ~sanitize:false ~mem_budget:(256 * 1024) () in
  check_no_forced "spilled full outer join" (fun () ->
      render (Nj.join ~options ~kind:Nj.Full ~theta:(Theta.eq 0 0) r s))

let test_parallel_join () =
  let r, s = Datasets.Webkit.pair ~seed:7 2000 in
  let options = Nj.options ~sanitize:false ~parallelism:2 () in
  check_no_forced "parallelism 2 join" (fun () ->
      List.map
        (fun kind -> render (Nj.join ~options ~kind ~theta:(Theta.eq 0 0) r s))
        Nj.[ Anti; Left; Full ])

let test_where_timeslice () =
  let c = catalog (let r, s = Datasets.Webkit.pair ~seed:7 4000 in [ r; s ]) in
  check_no_forced "WHERE / timeslice" (fun () ->
      List.map (run_sql c)
        [
          "SELECT * FROM r DURING [0,5000000)";
          "SELECT DISTINCT File FROM r DURING [0,500)";
          "SELECT * FROM r WHERE File <> 'x'";
          "SELECT * FROM r LEFT TPJOIN s ON r.File = s.File WHERE r.Rev <> 'r1' DURING [0,5000000)";
        ])

let test_server_cycle () =
  let r, s = Datasets.Webkit.pair ~seed:7 2000 in
  let r_csv = Csv.to_string r in
  let server = Server.start (Server.default_config (`Tcp ("127.0.0.1", 0))) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Option.get (Server.port server) in
  let client = Client.connect ~client:"gc" (`Tcp ("127.0.0.1", port)) in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  ignore (Client.load client ~name:"s" ~csv:(Csv.to_string s));
  check_no_forced "server LOAD + queries" (fun () ->
      ignore (Client.load client ~name:"r" ~csv:r_csv);
      List.map
        (fun op ->
          (Client.query client (Printf.sprintf "SELECT * FROM r %s s ON r.File = s.File" op)).Client.text)
        four)

(* Exact probability goes through a BDD with one level per variable.
   The formula, (x0 ∧ x1) ∨ x299 ∨ … ∨ x1, is not read-once (x1 occurs
   twice), and its BDD builds in linear time, so no minor collection
   runs before the probability sweep. Each run takes 300 fresh
   variables, so the manager's first variable is still young, as it is
   for a lineage the request has just built. *)
let test_bdd_levels () =
  let next = ref 0 in
  check_no_forced "Prob.exact over 300 fresh variables" (fun () ->
      let base = !next in
      next := base + 300;
      let x i = Formula.var (Var.make "gc" (base + i)) in
      Prob.exact
        (fun _ -> 0.5)
        (Formula.disj
           (Formula.conj [ x 0; x 1 ] :: List.init 299 (fun i -> x (299 - i)))))

(* Sharding only buckets the inputs: it starts no domain. *)
let test_shard2_partitions () =
  check_no_forced "shard2 into 300 partitions" (fun () ->
      Parallel.shard2 ~partitions:300 ~left_key:Fun.id ~right_key:Fun.id
        [ 1; 2; 3 ] [ 4; 5; 6 ])

(* The whole parallel join at 300 partitions, on the shared pool's fixed
   workers. *)
let test_many_partitions_join () =
  let r, s = Datasets.Webkit.pair ~seed:7 400 in
  let options = Nj.options ~sanitize:false ~parallelism:300 () in
  check_no_forced "parallelism 300 join" (fun () ->
      render (Nj.join ~options ~kind:Nj.Full ~theta:(Theta.eq 0 0) r s))

(* The merge of a parallel join at 300 partitions, on three tuples per
   side: too few for the sweeps to run a minor collection, so partition
   0's window streams are still young when the merge gathers the
   partitions' streams. The keys are picked to land in partition 0, and
   the two-column key takes the multi-column probe, which allocates no
   per-build bucket table (the single-column one allocates a 1024-bucket
   table per pass and partition, and those major allocations run minor
   collections). *)
let test_partition_merge () =
  let key = [ 0; 1 ] in
  let in_partition0 i =
    let fact = Fact.of_strings [ Printf.sprintf "k%d" i; "x" ] in
    Parallel.bucket_of ~partitions:300 (Fact.hash (Fact.key key fact)) = 0
  in
  let keys = List.filteri (fun j _ -> j < 3) (List.filter in_partition0 (List.init 5000 Fun.id)) in
  let rel name =
    Relation.of_rows ~name ~columns:[ "K"; "L" ] ~tag:name
      (List.map
         (fun i -> ([ Printf.sprintf "k%d" i; "x" ], Tpdb_interval.Interval.make i (i + 3), 0.5))
         keys)
  in
  let r = rel "r" and s = rel "s" in
  let options = Nj.options ~sanitize:false ~parallelism:300 () in
  let theta = Theta.conj (Theta.eq 0 0) (Theta.eq 1 1) in
  check_no_forced "parallelism 300 merge" (fun () ->
      render (Nj.join ~options ~kind:Nj.Anti ~theta r s))

let suite =
  [
    Alcotest.test_case "Csv.load forces no minor collection" `Quick test_csv_load;
    Alcotest.test_case "Meteo round forces no minor collection" `Quick test_meteo_round;
    Alcotest.test_case "spilled join forces no minor collection" `Quick test_spilled_join;
    Alcotest.test_case "parallel join forces no minor collection" `Quick test_parallel_join;
    Alcotest.test_case "WHERE/timeslice forces no minor collection" `Quick test_where_timeslice;
    Alcotest.test_case "server cycle forces no minor collection" `Quick test_server_cycle;
    Alcotest.test_case "300-variable BDD forces no minor collection" `Quick test_bdd_levels;
    Alcotest.test_case "300-way shard2 forces no minor collection" `Quick
      test_shard2_partitions;
    Alcotest.test_case "300-way join forces no minor collection" `Quick
      test_many_partitions_join;
    Alcotest.test_case "300-way merge forces no minor collection" `Quick
      test_partition_merge;
  ]
