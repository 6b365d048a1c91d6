(* Meteo-style monitoring: stations publish predictions that a metric
   stays stable over an interval. Joining on the metric (very few
   distinct values - the unselective case of the paper's evaluation)
   asks, per time point, with which probability a station's stable-metric
   prediction is corroborated by *no* station of a second network - and
   demonstrates the TP set operations on two overlapping networks.

     dune exec examples/meteo_monitoring.exe [SIZE] *)

open Tpdb
module E = Tpdb_experiments.Experiments

let () =
  let size = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2_000 in
  let r, s = E.pair E.Meteo ~size in
  let theta = E.theta E.Meteo in
  Printf.printf "meteo-like networks: |r| = %d, |s| = %d tuples\n"
    (Relation.cardinality r) (Relation.cardinality s);

  (* Distinct metric values: the reason this workload is expensive. *)
  let distinct_metrics rel =
    Relation.tuples rel
    |> List.map (fun tp -> Value.to_string (Fact.get (Tuple.fact tp) 1))
    |> List.sort_uniq String.compare
  in
  let metrics = distinct_metrics r in
  Printf.printf "distinct join values (metrics): %d (%s)\n"
    (List.length metrics)
    (String.concat ", " metrics);

  let t0 = Unix.gettimeofday () in
  let uncorroborated = Nj.join ~kind:Nj.Anti ~theta r s in
  let ms = 1000. *. (Unix.gettimeofday () -. t0) in
  Printf.printf
    "TP anti join (uncorroborated predictions): %d tuples in %.1f ms\n"
    (Relation.cardinality uncorroborated) ms;

  (* Network consolidation with TP set operations (prior-work extension):
     both operands must share a schema, so compare the two networks'
     station-metric predictions directly. *)
  let half = size / 2 in
  let net1 = Datasets.subset ~seed:11 ~k:half r in
  let net2 = Datasets.subset ~seed:12 ~k:half r in
  let env = Relation.prob_env [ r ] in
  let both = Nj.set_op ~env ~kind:`Intersect net1 net2 in
  let merged = Nj.set_op ~env ~kind:`Union net1 net2 in
  let only1 = Nj.set_op ~env ~kind:`Except net1 net2 in
  Printf.printf
    "set operations over two %d-tuple subnetworks:\n\
    \  union %d tuples, intersection %d tuples, difference %d tuples\n"
    half
    (Relation.cardinality merged)
    (Relation.cardinality both)
    (Relation.cardinality only1);

  (* Spot-check the set-op semantics against the pointwise oracle on a
     small sample. *)
  let sample1 = Datasets.subset ~seed:21 ~k:(min 150 half) net1 in
  let sample2 = Datasets.subset ~seed:22 ~k:(min 150 half) net2 in
  assert (
    Relation.equal_as_sets
      (Nj.set_op ~env ~kind:`Union sample1 sample2)
      (Oracle.set_op ~env ~kind:`Union sample1 sample2));
  print_endline "oracle agreement on sampled union: ok"
