(* Benchmark harness regenerating the paper's evaluation (one Bechamel
   test group per figure, plus the parameter sweeps that print the
   series of Figs. 5, 6 and 7 for both dataset families).

   Usage: dune exec bench/main.exe [-- FLAGS]
     --quick       tiny sweep sizes (CI smoke run)
     --paper       additionally run the NJ series at paper-scale sizes
     --no-bechamel skip the Bechamel micro-benchmarks
     --no-sweep    skip the sweeps
     --no-spill    skip the out-of-core spill-scale series
     --spill-only  run only the spill-scale series (the CI
                   memory-ceiling job runs this under ulimit -v)
     --server      run only the concurrent-server bench: an in-process
                   tpdb_server on an ephemeral port, hammered by
                   --clients N (default 200, 40 with --quick) client
                   threads issuing --requests N (default 50, 10 with
                   --quick) queries each from a fixed mix; reports
                   p50/p99 latency, queries/sec and the plan-/result-
                   cache hit counters (the committed BENCH_10.json
                   baseline)
     --json FILE   additionally write every sweep point plus the
                   pipeline's metrics snapshot (windows per class,
                   partition skew, quantile distributions) and the
                   render block (minor words per rendered byte of the
                   four-operator Meteo output), the join block (minor
                   words per output row of the same round, planned), the
                   lineage block (minor words per interning call that
                   finds its node, forming that round's output lineages
                   in a fresh domain), the csv block (minor words per
                   input byte of Csv.load over a Webkit pair) and the
                   spill block (minor words
                   per tuple of spilling that pair to disk and reading
                   it back) and the gc block (the minor collections of
                   the join, csv and spill blocks' measured passes, and
                   how many of them a large array built from a young
                   value forced) as a JSON report, led by a
                   self-describing meta block
     --openmetrics FILE
                   additionally write the metrics snapshot in the
                   OpenMetrics (Prometheus) text format *)

open Bechamel
open Toolkit
module E = Tpdb_experiments.Experiments
module Nj = Tpdb.Nj
module Ta = Tpdb.Ta
module Relation = Tpdb.Relation
module Metrics = Tpdb.Metrics
module J = Tpdb_obs.Json

let seq_length seq = Seq.fold_left (fun n _ -> n + 1) 0 seq

(* --- Bechamel micro-benchmarks: one test per figure series, at a fixed
   size per dataset so that a single run fits the quota. --- *)

let bechamel_size = function E.Webkit -> 2_000 | E.Meteo -> 1_000

let figure_tests dataset =
  let size = bechamel_size dataset in
  let theta = E.theta dataset in
  let r, s = E.pair dataset ~size in
  let name fmt = Printf.sprintf fmt (E.dataset_name dataset) in
  [
    Test.make
      ~name:(name "fig5/%s/NJ")
      (Staged.stage (fun () -> seq_length (Nj.windows_wuo ~theta r s)));
    Test.make
      ~name:(name "fig5/%s/TA")
      (Staged.stage (fun () ->
           List.length (Ta.windows_wuo ~algorithm:`Hash ~theta r s)));
    Test.make
      ~name:(name "fig6/%s/NJ-WUON")
      (Staged.stage (fun () -> seq_length (Nj.windows_wuon ~theta r s)));
    Test.make
      ~name:(name "fig6/%s/TA")
      (Staged.stage (fun () ->
           List.length (Ta.windows_wuon ~algorithm:`Hash ~theta r s)));
    Test.make
      ~name:(name "fig7/%s/NJ")
      (Staged.stage (fun () -> Relation.cardinality (Nj.join ~kind:Nj.Left ~theta r s)));
    Test.make
      ~name:(name "fig7/%s/TA")
      (Staged.stage (fun () ->
           Relation.cardinality
             (Ta.left_outer ~algorithm:`Nested_loop ~theta r s)));
  ]

let run_bechamel () =
  let tests =
    Test.make_grouped ~name:"figures"
      (figure_tests E.Webkit @ figure_tests E.Meteo)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (estimate :: _) -> estimate
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "\n== Bechamel micro-benchmarks (fixed sizes: webkit %d, meteo %d) ==\n"
    (bechamel_size E.Webkit) (bechamel_size E.Meteo);
  Printf.printf "%-28s %14s\n" "benchmark" "time/run [ms]";
  List.iter
    (fun (name, ns) -> Printf.printf "%-28s %14.2f\n" name (ns /. 1e6))
    rows;
  flush stdout

(* --- Sweeps: the figure series. --- *)

(* Every sweep goes through [emit], which prints the table as before and
   keeps the points for the [--json] report. *)
let sweeps : (string * E.point list) list ref = ref []

let emit header points =
  E.print_points ~header points;
  sweeps := (header, points) :: !sweeps

let run_sweeps scale =
  List.iter
    (fun dataset ->
      let d = E.dataset_name dataset in
      emit
        (Printf.sprintf "Fig 5 (%s): WUO - overlapping + unmatched windows" d)
        (E.fig5 ~scale dataset);
      emit
        (Printf.sprintf "Fig 6 (%s): negating windows" d)
        (E.fig6 ~scale dataset);
      emit
        (Printf.sprintf "Fig 7 (%s): TP left outer join" d)
        (E.fig7 ~scale dataset);
      emit
        (Printf.sprintf
           "Parallel (%s): WUON pipeline, partitioned sweep (jobs series)" d)
        (E.parallel_sweep ~scale dataset);
      let size = List.nth (E.sizes dataset scale) 1 in
      Printf.printf "\n== Ablation (%s): tuple replication ==\n%s\n" d
        (E.replication_report dataset ~size))
    [ E.Webkit; E.Meteo ]

(* --- Spill scale: the out-of-core executor at 10^6–10^7 input tuples ---

   The headline number of the spilling executor is flat peak memory
   while the input grows 10x, so each point runs in a forked child and
   reports its own VmHWM (the kernel's per-process peak resident set,
   from /proc/self/status) over a pipe — a single process would carry
   its high-water mark from one point to the next. The child streams
   both inputs straight into [Nj.join_spilled] (they are never
   materialized), joins under a fixed budget, and reports wall time,
   output cardinality, peak RSS and its spill/pool counters; the parent
   folds the counters into the bench metrics sink so the committed JSON
   report (and the CI memory-ceiling job's --require-counter checks)
   sees them.

   Workload: r carries [size] unique keys 0..size-1, s is fixed at
   [spill_s_rows] tuples over the first [spill_s_rows/2] keys (each
   twice), every interval is [0,100) — so the equi inner join's output
   is [spill_s_rows] windows at every size and only the spilled working
   set grows. Lineage variables cycle through a small pool: distinct
   formulas are hash-consed globally, and 10^7 distinct interned
   variables would dominate the very peak RSS the series measures. *)

let spill_budget_mb = 64
let spill_s_rows = 100_000

let spill_sizes quick =
  if quick then [ 100_000; 1_000_000 ] else [ 1_000_000; 10_000_000 ]

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic -> (
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              String.to_seq line
              |> Seq.filter (fun c -> c >= '0' && c <= '9')
              |> String.of_seq |> int_of_string
            else scan ()
      in
      try scan () with Failure _ -> 0)

let spill_iv = Tpdb.Interval.make 0 100
let spill_var rel i = Tpdb.Formula.var (Tpdb.Var.make rel (i land 0xFFF))

let spill_left n =
  ( Tpdb.Schema.make ~name:"r" [ "K" ],
    Seq.init n (fun i ->
        Tpdb.Tuple.make
          ~fact:(Tpdb.Fact.of_values [ Tpdb.Value.I i ])
          ~lineage:(spill_var "r" i) ~iv:spill_iv ~p:0.9) )

let spill_right () =
  ( Tpdb.Schema.make ~name:"s" [ "K"; "J" ],
    Seq.init spill_s_rows (fun j ->
        Tpdb.Tuple.make
          ~fact:
            (Tpdb.Fact.of_values
               [ Tpdb.Value.I (j mod (spill_s_rows / 2)); Tpdb.Value.I j ])
          ~lineage:(spill_var "s" j) ~iv:spill_iv ~p:0.8) )

(* Runs one spilled join and prints the point's numbers as a single
   line; in the forked setup stdout is the parent's pipe. *)
let spill_child oc n =
  let m = Metrics.create () in
  Metrics.install m;
  let options =
    Nj.options
      ~mem_budget:(spill_budget_mb * 1024 * 1024)
      ~est_rows:(n, spill_s_rows) ()
  in
  let t0 = Unix.gettimeofday () in
  let result =
    Nj.join_spilled ~options
      ~env:(fun _ -> 0.5)
      ~kind:Nj.Inner ~theta:(Tpdb.Theta.eq 0 0) ~left:(spill_left n)
      ~right:(spill_right ()) ()
  in
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let get c = Metrics.get m c in
  Printf.fprintf oc "%f %d %d %d %d %d %d\n" ms
    (Relation.cardinality result)
    (vm_hwm_kb ())
    (get Metrics.Spill_bytes)
    (get Metrics.Spill_partitions)
    (get Metrics.Pool_hits) (get Metrics.Pool_misses);
  flush oc;
  Metrics.uninstall ()

let spill_point n =
  let finish line =
    Scanf.sscanf line "%f %d %d %d %d %d %d"
      (fun ms output rss_kb bytes partitions hits misses ->
        (* fold the child's spill counters into the parent's sink: the
           JSON report's metrics block is the parent's *)
        Metrics.add Metrics.Spill_bytes bytes;
        Metrics.add Metrics.Spill_partitions partitions;
        Metrics.add Metrics.Pool_hits hits;
        Metrics.add Metrics.Pool_misses misses;
        { E.series = "spill-" ^ string_of_int spill_budget_mb ^ "MB";
          size = n; ms; output; rss_kb })
  in
  if not Sys.unix then begin
    (* no fork: run in-process; a process-wide VmHWM would not be
       per-point, so report no RSS *)
    let tmp = Filename.temp_file "tpdb-spill-point" ".txt" in
    Fun.protect ~finally:(fun () -> Sys.remove tmp) @@ fun () ->
    let oc = open_out tmp in
    spill_child oc n;
    close_out oc;
    let ic = open_in tmp in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    { (finish line) with E.rss_kb = 0 }
  end
  else begin
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 -> (
        Unix.close rd;
        match spill_child (Unix.out_channel_of_descr wr) n with
        | () -> Stdlib.exit 0
        | exception e ->
            prerr_endline ("spill bench child: " ^ Printexc.to_string e);
            Stdlib.exit 1)
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr rd in
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        let _, status = Unix.waitpid [] pid in
        (match status with
        | Unix.WEXITED 0 -> ()
        | _ ->
            Printf.eprintf "spill bench child (size %d) died\n%!" n;
            Stdlib.exit 1);
        finish line
  end

let run_spill_scale quick =
  emit
    (Printf.sprintf
       "Spill scale: out-of-core inner equi-join, %d MB budget, peak RSS \
        per forked point"
       spill_budget_mb)
    (List.map spill_point (spill_sizes quick))

(* The prob-cache series: counters are snapshotted around the sweep so
   the reported hit rate covers only the lineage-heavy runs, not every
   join the other sweeps happen to execute. *)
let prob_cache_report = ref None

let run_prob_cache_sweep metrics scale =
  let hits () = Metrics.get metrics Metrics.Prob_cache_hits in
  let misses () = Metrics.get metrics Metrics.Prob_cache_misses in
  let h0 = hits () and m0 = misses () in
  let points = E.prob_cache_sweep ~scale () in
  emit
    "Prob cache (uniform, 8 keys): full outer / anti, cached vs uncached"
    points;
  let speedups = E.prob_cache_speedups points in
  List.iter
    (fun (kind, speedup) ->
      Printf.printf "prob-cache speedup (%s): %.2fx\n" kind speedup)
    speedups;
  let h = hits () - h0 and m = misses () - m0 in
  let rate = if h + m > 0 then float_of_int h /. float_of_int (h + m) else 0.0 in
  if h + m > 0 then Printf.printf "prob-cache hit rate: %.3f\n" rate;
  flush stdout;
  prob_cache_report := Some (h, m, rate, speedups)

(* Fixed sizes regardless of --quick: the committed baseline must carry
   the million-tuple points (see Experiments.flat_scale_sweep). *)
let run_flat_scale () =
  emit "Flat scale: WUON pipeline, 125K-1M tuples per input"
    (E.flat_scale_sweep ())

let run_extra_sweeps () =
  emit "Extra: selectivity sweep (distinct keys; size column = keys)"
    (E.selectivity_sweep ());
  emit "Extra: skew sweep (Zipf exponent in tenths; 256 keys)"
    (E.skew_sweep ())

let run_paper_scale () =
  List.iter
    (fun dataset ->
      emit
        (Printf.sprintf "Paper scale (%s): NJ left outer join"
           (E.dataset_name dataset))
        (E.nj_paper_scale dataset))
    [ E.Webkit; E.Meteo ]

(* --- render allocation ---

   The result text of the four-operator Meteo round (anti, left, right
   and full outer join on Metric, 500 tuples per side, seed 7), rendered
   by [Relation.pp] through [Format.asprintf] and by
   [Relation.to_string]. Bytes and minor words are deterministic, so
   words per byte is a property of the code, not of the machine:
   check_bench.py --render-words-per-byte-ceiling gates it. The joins
   run with the metrics sink uninstalled, so the report's counters
   still match the baseline's. *)

let render_report : (int * int * int) option ref = ref None

let run_render metrics_installed =
  let outputs () =
    let r, s = Tpdb.Datasets.Meteo.pair ~seed:7 500 in
    List.map
      (fun kind -> Nj.join ~kind ~theta:(Tpdb.Theta.eq 1 1) r s)
      Nj.[ Anti; Left; Right; Full ]
  in
  let outputs =
    match metrics_installed with
    | None -> outputs ()
    | Some metrics ->
        Metrics.uninstall ();
        Fun.protect ~finally:(fun () -> Metrics.install metrics) outputs
  in
  let measure render =
    let before = Gc.minor_words () in
    let bytes =
      List.fold_left (fun n rel -> n + String.length (render rel)) 0 outputs
    in
    (bytes, int_of_float (Gc.minor_words () -. before))
  in
  let bytes, pp_words = measure (Format.asprintf "%a" Relation.pp) in
  let _, to_string_words = measure Relation.to_string in
  Printf.printf
    "render: %d bytes; minor words %d through pp (%.3f per byte), %d \
     through to_string (%.3f per byte)\n%!"
    bytes pp_words
    (float_of_int pp_words /. float_of_int bytes)
    to_string_words
    (float_of_int to_string_words /. float_of_int bytes);
  render_report := Some (bytes, pp_words, to_string_words)

(* --- join allocation ---

   Minor words per output row of the same four-operator Meteo round
   (seed 7, 500 tuples per side), planned through [Planner]: its safe-plan
   classification tags these joins statically safe, so they take their
   probabilities from the sweep. Rows and words are deterministic, so
   words per row is a property of the code:
   check_bench.py --join-words-per-row-ceiling gates it. Like the render
   block's, the joins run with the metrics sink uninstalled, so the
   report's counters still match the baseline's. *)

(* --- forced minor collections ---

   The minor collections of the join, csv and spill blocks' measured
   passes, read from the runtime's event ring, and how many of them
   [caml_make_vect] forced: on OCaml 5 an array of more than 256 words
   built from a value still in the minor heap forces a stop-the-world
   minor collection first. Each block runs after earlier ones, so
   module-level values are old by then. The library builds no such
   array, so the forced count is 0 and check_bench.py
   --forced-minor-ceiling gates it; an event lost from the ring fails
   the gate too, since it could hide one. *)

let gc_report : (string * Tpdb.Gc_events.counts) list ref = ref []

let counted name measure () =
  let r, counts = Tpdb.Gc_events.count measure in
  gc_report := !gc_report @ [ (name, counts) ];
  Printf.printf "gc: %s ran %d minor collections, %d forced (%d events lost)\n%!" name
    counts.Tpdb.Gc_events.minor counts.Tpdb.Gc_events.forced_make_vect
    counts.Tpdb.Gc_events.lost;
  r

let join_report : (int * int) option ref = ref None

let run_join metrics_installed =
  let r, s = Tpdb.Datasets.Meteo.pair ~seed:7 500 in
  let catalog = Tpdb.Catalog.create () in
  Tpdb.Catalog.register catalog r;
  Tpdb.Catalog.register catalog s;
  let plans =
    List.map
      (fun op ->
        Tpdb.Planner.plan ~sanitize:false catalog
          (Tpdb.Parser.parse
             (Printf.sprintf "SELECT * FROM r %s s ON r.Metric = s.Metric" op)))
      [ "ANTIJOIN"; "LEFT TPJOIN"; "RIGHT TPJOIN"; "FULL TPJOIN" ]
  in
  let measure () =
    let before = Gc.minor_words () in
    let rows =
      List.fold_left
        (fun n plan -> n + Relation.cardinality (Tpdb.Planner.run plan))
        0 plans
    in
    (rows, int_of_float (Gc.minor_words () -. before))
  in
  let rows, words =
    match metrics_installed with
    | None -> counted "join" measure ()
    | Some metrics ->
        Metrics.uninstall ();
        Fun.protect ~finally:(fun () -> Metrics.install metrics) (counted "join" measure)
  in
  Printf.printf "join: %d rows; minor words %d (%.1f per row)\n%!" rows words
    (float_of_int words /. float_of_int rows);
  join_report := Some (rows, words)

(* --- lineage interning allocation ---

   Minor words per interning call of output-lineage formation. The
   output lineages of the four-operator Meteo round (seed 7, 500 tuples
   per side) are taken apart into the operands [Concat] formed them
   from: [λr ∧ λs] by [&&&], [λr ∧ ¬λs] by [and_not]. A fresh domain,
   whose unique table starts empty, forms them all twice: the first
   pass interns every node, the second finds every node in the table.
   Calls, nodes and words are deterministic, so words per hit is a
   property of the code: check_bench.py --intern-words-per-hit-ceiling
   gates it. The joins run with the metrics sink uninstalled, like the
   render block's. *)

let lineage_report : (int * int * int * int) option ref = ref None

let run_lineage metrics_installed =
  let module F = Tpdb.Formula in
  let outputs () =
    let r, s = Tpdb.Datasets.Meteo.pair ~seed:7 500 in
    List.map
      (fun kind -> Nj.join ~kind ~theta:(Tpdb.Theta.eq 1 1) r s)
      Nj.[ Anti; Left; Right; Full ]
  in
  let outputs =
    match metrics_installed with
    | None -> outputs ()
    | Some metrics ->
        Metrics.uninstall ();
        Fun.protect ~finally:(fun () -> Metrics.install metrics) outputs
  in
  (* (negating, λr, λs) per formed output lineage *)
  let formed =
    List.concat_map Relation.tuples outputs
    |> List.filter_map (fun tp ->
           match F.view (Tpdb.Tuple.lineage tp) with
           | F.And [ lr; ls ] -> (
               match F.view ls with
               | F.Not ls -> Some (true, lr, ls)
               | _ -> Some (false, lr, ls))
           | _ -> None)
    |> Array.of_list
  in
  let form (negating, lr, ls) =
    ignore (if negating then F.and_not lr ls else F.( &&& ) lr ls)
  in
  let pass () =
    let before = Gc.minor_words () in
    Array.iter form formed;
    int_of_float (Gc.minor_words () -. before)
  in
  let nodes, miss_words, hit_words =
    Domain.join
      (Domain.spawn (fun () ->
           let miss_words = pass () in
           let nodes = F.interned () in
           (nodes, miss_words, pass ())))
  in
  let calls = Array.length formed in
  Printf.printf
    "lineage: %d formations, %d nodes; minor words %d interning (%.1f per \
     node), %d finding (%.2f per hit)\n%!"
    calls nodes miss_words
    (float_of_int miss_words /. float_of_int nodes)
    hit_words
    (float_of_int hit_words /. float_of_int calls);
  lineage_report := Some (calls, nodes, miss_words, hit_words)

(* --- CSV load allocation ---

   Minor words per input byte of [Csv.load] over the webkit-spill pair
   (Webkit, 4000 tuples per side, seed 7), written by [Csv.save] to
   temporary files. The pair's lineage variables are already interned
   when it loads, as in any process that generated its data, so bytes
   and words are deterministic and words per byte is a property of the
   code: check_bench.py --csv-words-per-byte-ceiling gates it. *)

let csv_report : (int * int) option ref = ref None

let run_csv metrics_installed =
  let r, s = Tpdb.Datasets.Webkit.pair ~seed:7 4000 in
  let save rel =
    let path = Filename.temp_file "tpdb_bench" ".csv" in
    Tpdb.Csv.save path rel;
    path
  in
  let paths = [ save r; save s ] in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove paths) @@ fun () ->
  let bytes =
    List.fold_left (fun n path -> n + (Unix.stat path).Unix.st_size) 0 paths
  in
  let measure () =
    let before = Gc.minor_words () in
    List.iter (fun path -> ignore (Tpdb.Csv.load ~name:"r" path)) paths;
    int_of_float (Gc.minor_words () -. before)
  in
  let words =
    match metrics_installed with
    | None -> counted "csv" measure ()
    | Some metrics ->
        Metrics.uninstall ();
        Fun.protect ~finally:(fun () -> Metrics.install metrics) (counted "csv" measure)
  in
  Printf.printf "csv: %d bytes; minor words %d (%.3f per byte)\n%!" bytes words
    (float_of_int words /. float_of_int bytes);
  csv_report := Some (bytes, words)

(* --- spill allocation ---

   Minor words per spilled tuple of the spill I/O layer on its own:
   [Spill.partition_pair] over the webkit-spill pair (Webkit, 4000
   tuples per side, seed 7) at that workload's 256 KiB budget, reading
   every partition back through the pool, and [Spill.finish]. The
   partitioner keys on the join's equi-columns exactly as [Nj] does.
   Tuples and words are deterministic, so words per tuple is a property
   of the code: check_bench.py --spill-words-per-tuple-ceiling gates
   it. *)

let spill_report : (int * int * int) option ref = ref None

let run_spill_alloc metrics_installed =
  let r, s = Tpdb.Datasets.Webkit.pair ~seed:7 4000 in
  let budget = 256 * 1024 in
  let left_cols, right_cols =
    match Tpdb.Theta.equi_keys (E.theta E.Webkit) with
    | Some keys -> keys
    | None -> invalid_arg "run_spill_alloc: Webkit θ has no equi-key"
  in
  let partitions =
    Tpdb.Spill.partitions_for ~budget
      ~est:(Tpdb.Spill.estimate_bytes r + Tpdb.Spill.estimate_bytes s)
  in
  let bucket cols tp =
    Tpdb.Parallel.bucket_of ~partitions
      (Tpdb.Fact.hash (Tpdb.Fact.key cols (Tpdb.Tuple.fact tp)))
  in
  let measure () =
    let before = Gc.minor_words () in
    let spill =
      Tpdb.Spill.partition_pair ~partitions
        ~pool_pages:(Tpdb.Spill.pool_pages ~budget)
        ~left_key:(bucket left_cols) ~right_key:(bucket right_cols)
        (Relation.schema r, Relation.to_seq r)
        (Relation.schema s, Relation.to_seq s)
    in
    Fun.protect ~finally:(fun () -> Tpdb.Spill.finish spill) (fun () ->
        for i = 0 to partitions - 1 do
          ignore (Tpdb.Spill.read_left spill i);
          ignore (Tpdb.Spill.read_right spill i)
        done);
    int_of_float (Gc.minor_words () -. before)
  in
  let words =
    match metrics_installed with
    | None -> counted "spill" measure ()
    | Some metrics ->
        Metrics.uninstall ();
        Fun.protect ~finally:(fun () -> Metrics.install metrics) (counted "spill" measure)
  in
  let tuples = Relation.cardinality r + Relation.cardinality s in
  Printf.printf
    "spill: %d tuples in %d partitions; minor words %d (%.1f per tuple)\n%!"
    tuples partitions words
    (float_of_int words /. float_of_int tuples);
  spill_report := Some (tuples, partitions, words)

(* --- the JSON report --- *)

(* Self-describing provenance for committed BENCH_*.json files. Nothing
   here is compared by check_bench.py (it pops "meta" before diffing) —
   it exists so a baseline records which commit, compiler, host and
   parallelism produced it. *)
let meta_json () =
  let git_commit =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let host = try Unix.gethostname () with _ -> "unknown" in
  let timestamp =
    let tm = Unix.gmtime (Unix.gettimeofday ()) in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec
  in
  J.obj
    [
      ("git_commit", J.str git_commit);
      ("ocaml_version", J.str Sys.ocaml_version);
      ("host", J.str host);
      ("timestamp", J.str timestamp);
      ("jobs", J.int (Domain.recommended_domain_count ()));
    ]

(* Filled by the --server bench; lands as the report's "server" block. *)
let server_report : (string * string) list option ref = ref None

let json_report metrics =
  let point (p : E.point) =
    J.obj
      ([
         ("series", J.str p.E.series);
         ("size", J.int p.E.size);
         ("ms", J.float p.E.ms);
         ("output", J.int p.E.output);
       ]
      (* machine-dependent like ms, so check_bench ignores it; only
         measured points carry the field *)
      @ if p.E.rss_kb > 0 then [ ("rss_kb", J.int p.E.rss_kb) ] else [])
  in
  let sweep (header, points) =
    J.obj
      [ ("name", J.str header); ("points", J.arr (List.map point points)) ]
  in
  let window name c = (name, J.int (Metrics.get metrics c)) in
  let ps = Metrics.dist_stats metrics Metrics.Partition_size in
  let mean = Metrics.mean ps in
  J.obj
    ([
      ("meta", meta_json ());
      ("sweeps", J.arr (List.map sweep (List.rev !sweeps)));
      ( "windows",
        J.obj
          [
            window "overlapping" Metrics.Windows_overlapping;
            window "unmatched" Metrics.Windows_unmatched;
            window "negating" Metrics.Windows_negating;
          ] );
      ( "partition_skew",
        J.obj
          [
            ("sweeps", J.int ps.Metrics.count);
            ("max_size", J.int ps.Metrics.max);
            ("mean_size", J.float mean);
            ( "max_over_mean",
              J.float
                (if mean > 0.0 then float_of_int ps.Metrics.max /. mean
                 else 0.0) );
          ] );
      (* allocation of the recording domain across every sweep point:
         minor words plus the major/promoted split count_alloc now
         reports ([minor_alloc_words] keeps its name and semantics, so
         older baselines still compare) *)
      ( "alloc",
        J.obj
          [
            ( "minor_words",
              J.int (Metrics.get metrics Metrics.Minor_alloc_words) );
            ( "major_words",
              J.int (Metrics.get metrics Metrics.Major_alloc_words) );
            ( "promoted_words",
              J.int (Metrics.get metrics Metrics.Promoted_words) );
          ] );
      ( "prob_cache",
        match !prob_cache_report with
        | None -> J.obj []
        | Some (hits, misses, rate, speedups) ->
            J.obj
              [
                ("hits", J.int hits);
                ("misses", J.int misses);
                ( "resets",
                  J.int (Metrics.get metrics Metrics.Prob_cache_resets) );
                ("hit_rate", J.float rate);
                ( "speedup",
                  J.obj (List.map (fun (k, v) -> (k, J.float v)) speedups) );
              ] );
    ]
    @ (match !server_report with
      | None -> []
      | Some fields -> [ ("server", J.obj fields) ])
    @ (match !render_report with
      | None -> []
      | Some (bytes, pp_words, to_string_words) ->
          let per_byte words = J.float (float_of_int words /. float_of_int bytes) in
          [
            ( "render",
              J.obj
                [
                  ("bytes", J.int bytes);
                  ("pp_minor_words", J.int pp_words);
                  ("to_string_minor_words", J.int to_string_words);
                  ("pp_words_per_byte", per_byte pp_words);
                  ("to_string_words_per_byte", per_byte to_string_words);
                ] );
          ])
    @ (match !join_report with
      | None -> []
      | Some (rows, words) ->
          [
            ( "join",
              J.obj
                [
                  ("rows", J.int rows);
                  ("minor_words", J.int words);
                  ( "words_per_row",
                    J.float (float_of_int words /. float_of_int rows) );
                ] );
          ])
    @ (match !lineage_report with
      | None -> []
      | Some (calls, nodes, miss_words, hit_words) ->
          [
            ( "lineage",
              J.obj
                [
                  ("calls", J.int calls);
                  ("nodes", J.int nodes);
                  ("miss_minor_words", J.int miss_words);
                  ("hit_minor_words", J.int hit_words);
                  ( "words_per_node",
                    J.float (float_of_int miss_words /. float_of_int nodes) );
                  ( "words_per_hit",
                    J.float (float_of_int hit_words /. float_of_int calls) );
                ] );
          ])
    @ (match !csv_report with
      | None -> []
      | Some (bytes, words) ->
          [
            ( "csv",
              J.obj
                [
                  ("bytes", J.int bytes);
                  ("minor_words", J.int words);
                  ( "words_per_byte",
                    J.float (float_of_int words /. float_of_int bytes) );
                ] );
          ])
    @ (match !spill_report with
      | None -> []
      | Some (tuples, partitions, words) ->
          [
            ( "spill",
              J.obj
                [
                  ("tuples", J.int tuples);
                  ("partitions", J.int partitions);
                  ("minor_words", J.int words);
                  ( "words_per_tuple",
                    J.float (float_of_int words /. float_of_int tuples) );
                ] );
          ])
    @ (match !gc_report with
      | [] -> []
      | blocks ->
          let block (name, (c : Tpdb.Gc_events.counts)) =
            ( name,
              J.obj
                [
                  ("minor", J.int c.minor);
                  ("forced_make_vect", J.int c.forced_make_vect);
                  ("lost_events", J.int c.lost);
                ] )
          in
          [ ("gc", J.obj (List.map block blocks)) ])
    (* the full snapshot, verbatim from the sink *)
    @ [ ("metrics", Metrics.to_json metrics) ])

(* --- the concurrent-server bench (--server) ---------------------------

   One in-process server on an ephemeral TCP port, seeded with the
   webkit pair, hammered by hundreds of client threads replaying a
   fixed query mix. Each request's latency is recorded client-side;
   the report carries p50/p99 and queries/sec plus the plan- and
   result-cache counters. Row counts per query are deterministic, so
   the sweep points' outputs compare exactly across runs; the latency
   and throughput numbers are the machine-dependent headline. *)

let server_query_mix =
  [
    ("inner", "SELECT * FROM r TPJOIN s ON r.File = s.File");
    ("left-outer", "SELECT * FROM r LEFT TPJOIN s ON r.File = s.File");
    ("full-outer", "SELECT * FROM r FULL TPJOIN s ON r.File = s.File");
    ("anti", "SELECT * FROM r ANTIJOIN s ON r.File = s.File");
  ]

let server_bench_failed = ref false

let run_server_bench ~quick ~clients ~requests metrics =
  let module Server = Tpdb.Server in
  let module Client = Tpdb.Server_client in
  let size = if quick then 500 else 2_000 in
  let r, s = E.pair E.Webkit ~size in
  let config =
    {
      (Server.default_config (`Tcp ("", 0))) with
      Server.workers = max 2 (Domain.recommended_domain_count () - 2);
      queue_limit = 4096;
      plan_cache_capacity = 64;
      result_cache_capacity = 128;
    }
  in
  let server = Server.start config in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let store = Server.store server in
  ignore (Tpdb.Server_store.register store r);
  ignore (Tpdb.Server_store.register store s);
  let port =
    match Server.port server with Some p -> p | None -> assert false
  in
  let addr = `Tcp ("", port) in
  (* Warm-up: one pass over the mix plans and executes each query once,
     so the measured runs exercise the repeated-query (cached) path the
     server exists for — and record the expected row counts. *)
  let expected =
    let c = Client.connect ~client:"bench-warmup" addr in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.map
      (fun (name, sql) -> (name, (Client.query c sql).Client.rows))
      server_query_mix
  in
  let nq = List.length server_query_mix in
  let latencies = Array.make (clients * requests) 0 in
  let fail_mutex = Mutex.create () in
  let overloads = ref 0 and errors = ref 0 and mismatches = ref 0 in
  let tally cell =
    Mutex.lock fail_mutex;
    incr cell;
    Mutex.unlock fail_mutex
  in
  let client_thread tid =
    let rec connect tries =
      match Client.connect ~client:(Printf.sprintf "bench-%d" tid) addr with
      | c -> c
      | exception
          Unix.Unix_error
            ((ECONNREFUSED | ECONNRESET | EAGAIN | ETIMEDOUT), _, _)
        when tries < 100 ->
          Thread.delay 0.01;
          connect (tries + 1)
    in
    let c = connect 0 in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for i = 0 to requests - 1 do
      let k = (tid + i) mod nq in
      let name, sql = List.nth server_query_mix k in
      let t0 = Tpdb.Obs_clock.now_ns () in
      (match Client.query c sql with
      | resp ->
          if resp.Client.rows <> List.assoc name expected then
            tally mismatches
      | exception Client.Server_overloaded _ -> tally overloads
      | exception _ -> tally errors);
      latencies.((tid * requests) + i) <- Tpdb.Obs_clock.now_ns () - t0
    done
  in
  let t_start = Tpdb.Obs_clock.now_ns () in
  let threads = List.init clients (fun tid -> Thread.create client_thread tid) in
  List.iter Thread.join threads;
  let wall_ns = Tpdb.Obs_clock.now_ns () - t_start in
  let total = clients * requests in
  Array.sort compare latencies;
  let pct p =
    float_of_int latencies.(min (total - 1) (p * total / 100)) /. 1e6
  in
  let mean_ms =
    float_of_int (Array.fold_left ( + ) 0 latencies)
    /. float_of_int total /. 1e6
  in
  let wall_s = float_of_int wall_ns /. 1e9 in
  let qps = if wall_s > 0.0 then float_of_int total /. wall_s else 0.0 in
  (* per-query mean latency + deterministic output cardinality *)
  let points =
    List.mapi
      (fun k (name, _sql) ->
        let sum = ref 0 and n = ref 0 in
        for tid = 0 to clients - 1 do
          for i = 0 to requests - 1 do
            if (tid + i) mod nq = k then begin
              sum := !sum + latencies.((tid * requests) + i);
              incr n
            end
          done
        done;
        {
          E.series = name;
          size = clients;
          ms =
            (if !n > 0 then float_of_int !sum /. float_of_int !n /. 1e6
             else 0.0);
          output = List.assoc name expected;
          rss_kb = 0;
        })
      server_query_mix
  in
  emit
    (Printf.sprintf
       "Server: %d concurrent sessions, %d requests each (webkit %d)"
       clients requests size)
    points;
  let counter name c = (name, J.int (Metrics.get metrics c)) in
  server_report :=
    Some
      [
        ("clients", J.int clients);
        ("requests_per_client", J.int requests);
        ("queries", J.int total);
        ("wall_ms", J.float (wall_s *. 1e3));
        ("qps", J.float qps);
        ("mean_ms", J.float mean_ms);
        ("p50_ms", J.float (pct 50));
        ("p99_ms", J.float (pct 99));
        ("overloads", J.int !overloads);
        ("errors", J.int !errors);
        ("row_mismatches", J.int !mismatches);
        counter "server_queries" Metrics.Server_queries;
        counter "plan_cache_hits" Metrics.Plan_cache_hits;
        counter "plan_cache_misses" Metrics.Plan_cache_misses;
        counter "result_cache_hits" Metrics.Result_cache_hits;
        counter "result_cache_misses" Metrics.Result_cache_misses;
        counter "sessions_opened" Metrics.Sessions_opened;
      ];
  Printf.printf
    "server bench: %d clients x %d requests — %.0f q/s, p50 %.2f ms, p99 \
     %.2f ms (mean %.2f ms)\n"
    clients requests qps (pct 50) (pct 99) mean_ms;
  Printf.printf
    "server bench: plan cache %d hits / %d misses, result cache %d hits / \
     %d misses\n"
    (Metrics.get metrics Metrics.Plan_cache_hits)
    (Metrics.get metrics Metrics.Plan_cache_misses)
    (Metrics.get metrics Metrics.Result_cache_hits)
    (Metrics.get metrics Metrics.Result_cache_misses);
  if !errors > 0 || !mismatches > 0 then begin
    Printf.printf
      "server bench FAILED: %d errors, %d row mismatches, %d overloads\n"
      !errors !mismatches !overloads;
    server_bench_failed := true
  end;
  flush stdout

let rec option_value flag = function
  | f :: v :: _ when f = flag -> Some v
  | _ :: rest -> option_value flag rest
  | [] -> None

let () =
  let flags = Array.to_list Sys.argv in
  let has f = List.mem f flags in
  let json_out = option_value "--json" flags in
  let openmetrics_out = option_value "--openmetrics" flags in
  let metrics = Metrics.create () in
  if Option.is_some json_out || Option.is_some openmetrics_out then
    Metrics.install metrics;
  let scale = if has "--quick" then E.Quick else E.Default in
  if has "--server" then begin
    (* the concurrent-server bench: counters must land in [metrics]
       even without --json, and the in-process server must reuse the
       sink rather than install its own *)
    (match Metrics.active () with
    | Some _ -> ()
    | None -> Metrics.install metrics);
    let int_flag flag ~default =
      match option_value flag flags with
      | Some v -> int_of_string v
      | None -> default
    in
    let quick = has "--quick" in
    run_server_bench ~quick
      ~clients:(int_flag "--clients" ~default:(if quick then 40 else 200))
      ~requests:(int_flag "--requests" ~default:(if quick then 10 else 50))
      metrics
  end
  else if has "--spill-only" then
    (* the CI memory-ceiling job: just the out-of-core series, under
       ulimit -v — everything else here would blow a 2 GB ceiling by
       design, not by regression *)
    run_spill_scale (has "--quick")
  else begin
    (* the spill series forks; run it before any sweep that spawns pool
       domains (forking a multi-domain OCaml runtime is undefined) *)
    if not (has "--no-spill") then run_spill_scale (has "--quick");
    if not (has "--no-bechamel") then run_bechamel ();
    if not (has "--no-sweep") then begin
      run_sweeps scale;
      run_prob_cache_sweep metrics scale;
      run_flat_scale ();
      if scale <> E.Quick then run_extra_sweeps ()
    end;
    if has "--paper" then run_paper_scale ();
    run_render (Metrics.active ());
    run_join (Metrics.active ());
    run_lineage (Metrics.active ());
    run_csv (Metrics.active ());
    run_spill_alloc (Metrics.active ())
  end;
  Metrics.uninstall ();
  (match json_out with
  | Some path ->
      let oc = open_out path in
      output_string oc (json_report metrics);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote JSON report to %s\n" path
  | None -> ());
  (match openmetrics_out with
  | Some path ->
      Metrics.save_openmetrics metrics path;
      Printf.printf "wrote OpenMetrics report to %s\n" path
  | None -> ());
  Printf.printf "\nbench: done\n";
  if !server_bench_failed then exit 1
