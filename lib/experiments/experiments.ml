module Relation = Tpdb_relation.Relation
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Nj = Tpdb_joins.Nj
module Ta = Tpdb_alignment.Ta
module Align = Tpdb_alignment.Align
module Datasets = Tpdb_workload.Datasets
module Metrics = Tpdb_obs.Metrics

type dataset = Webkit | Meteo

let dataset_name = function Webkit -> "webkit" | Meteo -> "meteo"

let theta = function Webkit -> Theta.eq 0 0 | Meteo -> Theta.eq 1 1

type scale = Quick | Default | Paper

(* The paper samples 50–200K-tuple subsets out of a ~257K-tuple dataset,
   i.e. 20–100% of the universe; the sweeps keep those proportions at
   every scale. Meteo universes are smaller throughout: its unselective θ
   makes outputs (and the paper's own runtimes, up to 10^6 ms) grow
   quadratically with input size. *)
let universe_size dataset scale =
  match (dataset, scale) with
  | _, Quick -> 1_000
  | Webkit, Default -> 16_000
  | Meteo, Default -> 8_000
  | Webkit, Paper -> 200_000
  | Meteo, Paper -> 20_000

let sizes dataset scale =
  let quarter = universe_size dataset scale / 4 in
  [ quarter; 2 * quarter; 3 * quarter; 4 * quarter ]

let base_pair_cache : (dataset * int, Relation.t * Relation.t) Hashtbl.t =
  Hashtbl.create 4

let base_pair dataset scale =
  let size = universe_size dataset scale in
  match Hashtbl.find_opt base_pair_cache (dataset, size) with
  | Some pair -> pair
  | None ->
      let pair =
        match dataset with
        | Webkit -> Datasets.Webkit.pair ~seed:42 size
        | Meteo -> Datasets.Meteo.pair ~seed:7 size
      in
      Hashtbl.add base_pair_cache (dataset, size) pair;
      pair

let pair ?(scale = Default) dataset ~size =
  let r, s = base_pair dataset scale in
  if size > Relation.cardinality r then
    invalid_arg
      (Printf.sprintf "Experiments.pair: size %d exceeds %s universe %d" size
         (dataset_name dataset) (Relation.cardinality r));
  ( Datasets.subset ~seed:(size + 1) ~k:size r,
    Datasets.subset ~seed:(size + 2) ~k:size s )

type point = {
  series : string;
  size : int;
  ms : float;
  output : int;
  rss_kb : int;  (* per-point process peak RSS; 0 = not measured *)
}

(* Every sweep point is also an allocation extent: with a metrics sink
   installed (bench --json) the minor words the measuring domain
   allocates while producing the point accumulate in
   [Minor_alloc_words], which the bench regression gate bounds. *)
let timed f =
  Metrics.count_alloc Metrics.Minor_alloc_words (fun () ->
      let t0 = Unix.gettimeofday () in
      let output = f () in
      let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
      (ms, output))

let point series size f =
  let ms, output = timed f in
  { series; size; ms; output; rss_kb = 0 }

let sweep ?(scale = Default) dataset runners =
  let theta = theta dataset in
  List.concat_map
    (fun size ->
      let r, s = pair ~scale dataset ~size in
      List.map (fun (series, run) -> point series size (fun () -> run ~theta r s)) runners)
    (sizes dataset scale)

let seq_length seq = Seq.fold_left (fun n _ -> n + 1) 0 seq

let fig5 ?scale dataset =
  sweep ?scale dataset
    [
      ("NJ", fun ~theta r s -> seq_length (Nj.windows_wuo ~theta r s));
      ( "TA",
        fun ~theta r s ->
          List.length (Ta.windows_wuo ~algorithm:`Hash ~theta r s) );
    ]

let fig6 ?scale dataset =
  sweep ?scale dataset
    [
      ("NJ-WUON", fun ~theta r s -> seq_length (Nj.windows_wuon ~theta r s));
      ( "TA",
        fun ~theta r s ->
          List.length (Ta.windows_wuon ~algorithm:`Hash ~theta r s) );
    ]

let fig7 ?scale dataset =
  sweep ?scale dataset
    [
      ("NJ", fun ~theta r s -> Relation.cardinality (Nj.join ~kind:Nj.Left ~theta r s));
      ( "TA",
        fun ~theta r s ->
          Relation.cardinality (Ta.left_outer ~algorithm:`Nested_loop ~theta r s) );
    ]

let nj_paper_scale dataset =
  let theta = theta dataset in
  List.map
    (fun size ->
      let r, s = pair ~scale:Paper dataset ~size in
      point "NJ" size (fun () -> Relation.cardinality (Nj.join ~kind:Nj.Left ~theta r s)))
    (sizes dataset Paper)

(* The domain-parallel partitioned sweep vs the sequential one: the same
   WUON pipeline at increasing partition counts, all on the shared
   domain pool. Speedups require actual cores; on a single-core host the
   series only shows the partitioning overhead. *)
let parallel_jobs = [ 1; 2; 4 ]

let parallel_sweep ?scale dataset =
  sweep ?scale dataset
    (List.map
       (fun jobs ->
         ( Printf.sprintf "jobs-%d" jobs,
           fun ~theta r s ->
             seq_length
               (Nj.windows_wuon
                  ~options:(Nj.options ~parallelism:jobs ())
                  ~theta r s) ))
       parallel_jobs)

(* The flat core at headline scale: a 10^6-tuples-per-input series on
   the generic uniform generator. Sizes are fixed rather than derived
   from [?scale] so the committed BENCH_6.json baseline always carries
   the million-tuple points. ~1000-entry key groups put the series in
   the regime the flat layout is built for: candidate scans long enough
   that per-candidate cost — a raw endpoint-array read vs a Seq closure
   plus a record — dominates.

   Three series. [flat-kernel] is {!Tpdb_windows.Flat_join.count}, the
   sweep core counting every WUON window straight off the endpoint
   buffers with nothing materialized; it runs at every size. [flat]
   enumerates the same windows through the materializing pipeline, and
   [conventional] is TA's conventional outer join on the same inputs
   (the hash-partitioned {!Tpdb_windows.Overlap.left}, TA's pass 1: the
   overlapping windows alone); both run only at {!flat_scale_ratio_size}.
   Conventional-over-kernel ms at that size is the machine-independent
   sweep-throughput ratio the bench regression gate holds above a
   floor. *)
let flat_scale_sizes = [ 125_000; 250_000; 500_000; 1_000_000 ]
let flat_scale_ratio_size = List.hd flat_scale_sizes

let flat_scale_sweep () =
  let module Flat_join = Tpdb_windows.Flat_join in
  let module Overlap = Tpdb_windows.Overlap in
  let theta = Theta.eq 0 0 in
  List.concat_map
    (fun size ->
      let make name seed =
        Datasets.Uniform.relation ~name ~seed:(seed + size)
          ~keys:(max 1 (size / 1024)) ~horizon:12_800 ~mean_duration:50 size
      in
      let r = make "r" 500 and s = make "s" 600 in
      let kernel =
        point "flat-kernel" size (fun () ->
            Flat_join.count ~stage:`Wuon ~theta r s)
      in
      if size = flat_scale_ratio_size then
        [
          kernel;
          point "flat" size (fun () ->
              seq_length (Nj.windows_wuon ~theta r s));
          point "conventional" size (fun () ->
              seq_length (Overlap.left ~algorithm:`Hash ~theta r s));
        ]
      else [ kernel ])
    flat_scale_sizes

(* Selectivity sweep: fixed input size, varying distinct-key count. Few
   keys = the Meteo regime (huge outputs), many keys = the Webkit regime
   (selective θ). *)
let selectivity_sweep ?(size = 4_000) () =
  let theta = Theta.eq 0 0 in
  List.concat_map
    (fun keys ->
      let make name seed =
        Datasets.Uniform.relation ~name ~seed:(seed + keys) ~keys
          ~horizon:2_000 ~mean_duration:40 size
      in
      let r = make "r" 100 and s = make "s" 200 in
      [
        { (point "NJ" keys (fun () ->
               Relation.cardinality (Nj.join ~kind:Nj.Left ~theta r s)))
          with size = keys };
        { (point "TA" keys (fun () ->
               Relation.cardinality (Ta.left_outer ~algorithm:`Hash ~theta r s)))
          with size = keys };
      ])
    [ 2; 8; 64; 512; 4096 ]

(* Skew sweep: fixed size and key count, varying Zipf exponent. *)
let skew_sweep ?(size = 4_000) () =
  let theta = Theta.eq 0 0 in
  List.concat_map
    (fun tenths ->
      let skew = float_of_int tenths /. 10.0 in
      let make name seed =
        Datasets.Uniform.relation ~skew ~name ~seed:(seed + tenths) ~keys:256
          ~horizon:2_000 ~mean_duration:40 size
      in
      let r = make "r" 300 and s = make "s" 400 in
      [
        { (point "NJ" tenths (fun () ->
               Relation.cardinality (Nj.join ~kind:Nj.Left ~theta r s)))
          with size = tenths };
        { (point "TA" tenths (fun () ->
               Relation.cardinality (Ta.left_outer ~algorithm:`Hash ~theta r s)))
          with size = tenths };
      ])
    [ 0; 5; 10; 15; 20 ]

let ablation_replication dataset ~size =
  let theta = theta dataset in
  let r, s = pair dataset ~size in
  let replicas = Align.replica_count ~algorithm:`Hash ~theta r s in
  let windows = seq_length (Nj.windows_wuon ~theta r s) in
  (replicas, windows)

let replication_report dataset ~size =
  let replicas, windows = ablation_replication dataset ~size in
  Printf.sprintf
    "input |r| = %d; TA materializes %d aligned replicas (%.1fx of r) as \
     intermediates before its second join; NJ streams %d windows with no \
     intermediate materialization"
    size replicas
    (float_of_int replicas /. float_of_int size)
    windows

let print_points ~header points =
  Printf.printf "\n== %s ==\n" header;
  (* the peak-RSS column appears only on sweeps that measured it, so the
     existing tables stay byte-identical *)
  let with_rss = List.exists (fun p -> p.rss_kb > 0) points in
  Printf.printf "%-10s %10s %12s %12s%s\n" "series" "size" "runtime[ms]"
    "output"
    (if with_rss then Printf.sprintf " %12s" "peak-rss[MB]" else "");
  List.iter
    (fun p ->
      Printf.printf "%-10s %10d %12.1f %12d%s\n" p.series p.size p.ms p.output
        (if with_rss then
           Printf.sprintf " %12.1f" (float_of_int p.rss_kb /. 1024.0)
         else ""))
    points;
  flush stdout
