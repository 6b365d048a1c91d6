(** Runners for the paper's evaluation (Figs. 5, 6, 7) plus the ablation
    studies DESIGN.md calls out. Shared by [bench/main.ml] and the CLI.

    Every figure is a parameter sweep over input cardinality on two
    dataset families (Webkit-like, Meteo-like). Following the paper,
    sweeps draw uniform subsets of one generated dataset pair. Default
    sizes are scaled down from the paper's 50–200K so that the TA
    baseline's quadratic plans finish in seconds; [`Paper] scale runs the
    NJ series at the published sizes (see EXPERIMENTS.md for the
    recorded results at both scales). *)

module Relation = Tpdb_relation.Relation
module Theta = Tpdb_windows.Theta

type dataset = Webkit | Meteo

val dataset_name : dataset -> string
val theta : dataset -> Theta.t
(** File = File for Webkit, Metric = Metric for Meteo. *)

type scale = Quick | Default | Paper

val universe_size : dataset -> scale -> int
(** Size of the generated dataset a sweep samples subsets from. *)

val sizes : dataset -> scale -> int list
(** The sweep sizes: 25%, 50%, 75% and 100% of the universe, mirroring
    the paper's 50–200K subsets of the ~257K-tuple Webkit dataset. *)

val pair : ?scale:scale -> dataset -> size:int -> Relation.t * Relation.t
(** Uniform subsets (of [size] tuples each) of the deterministic
    universe pair for [scale] (default [Default]). Memoized per
    universe. *)

type point = {
  series : string;
  size : int;  (** tuples per input side *)
  ms : float;
  output : int;  (** result cardinality (windows or tuples) *)
  rss_kb : int;
      (** peak resident set (VmHWM) of the process that produced the
          point, in kB; [0] when not measured — only the out-of-core
          spill series runs each point in its own process to get a
          per-point peak *)
}

val fig5 : ?scale:scale -> dataset -> point list
(** WUO — overlapping and unmatched windows: series NJ and TA (both with
    the hash join, as in the paper where both share the conventional-join
    plan). *)

val fig6 : ?scale:scale -> dataset -> point list
(** Negating windows: series NJ-WUON (windows pipeline end to end) and
    TA. *)

val fig7 : ?scale:scale -> dataset -> point list
(** Full TP left outer join: series NJ (hash) and TA (nested loop — the
    plan PostgreSQL's optimizer picks for TA's θo ∧ θ predicate). *)

val nj_paper_scale : dataset -> point list
(** NJ-only left outer join at the paper's input sizes (50–200K for
    Webkit; capped for Meteo, whose outputs grow quadratically in input
    size — see EXPERIMENTS.md). *)

val flat_scale_sizes : int list
(** The input sizes of {!flat_scale_sweep}: 125K to 10^6 tuples per
    side. *)

val flat_scale_ratio_size : int
(** The one size at which {!flat_scale_sweep} also runs the
    materializing pipeline and the conventional outer join;
    conventional-over-kernel ms at this size is the sweep-throughput
    ratio bench/check_bench.py holds above a floor. *)

val flat_scale_sweep : unit -> point list
(** The flat sweep core at fixed sizes up to 10^6 tuples per input
    (uniform generator, ~1000-entry key groups). Series [flat-kernel]
    ({!Tpdb_windows.Flat_join.count}, nothing materialized) at every
    size; series [flat] (the materializing WUON pipeline) and
    [conventional] (TA's hash-partitioned conventional outer join,
    {!Tpdb_windows.Overlap.left}) at {!flat_scale_ratio_size} only. *)

val selectivity_sweep : ?size:int -> unit -> point list
(** NJ vs TA (hash) left outer join at a fixed input size over distinct-
    key counts {2, 8, 64, 512, 4096}: the [size] field of each point is
    the key count. Shows the continuum between the Meteo regime (few
    keys, output-bound) and the Webkit regime (many keys, selective). *)

val skew_sweep : ?size:int -> unit -> point list
(** Same comparison over Zipf exponents {0, 0.5, 1, 1.5, 2} (the [size]
    field is the exponent in tenths) at 256 keys: key skew concentrates
    matches like low key counts do. *)

val parallel_jobs : int list
(** The partition counts of {!parallel_sweep}: [1; 2; 4]. *)

val parallel_sweep : ?scale:scale -> dataset -> point list
(** The WUON pipeline under the domain-parallel partitioned executor:
    series [jobs-1], [jobs-2], [jobs-4] (sequential baseline and 2/4-way
    sharding on the equi-key). Outputs are identical across series by
    construction; the runtime ratio is the parallel speedup (requires
    actual cores — a single-core host only shows the partitioning
    overhead). *)

val prob_cache_sweep : ?scale:scale -> unit -> point list
(** Lineage-heavy series for the probability cache: full outer and anti
    joins over few-key uniform pairs (8 keys, so window lineages are
    large conjunctions over recurring variables), each run uncached
    ([prob_cache:false]) and cached under one shared env. Series names
    are [full-outer/cached], [full-outer/uncached], [anti/cached],
    [anti/uncached]; outputs (and probabilities) are identical within a
    kind by construction. *)

val prob_cache_speedups : point list -> (string * float) list
(** Per join kind, total uncached runtime over total cached runtime of a
    {!prob_cache_sweep} result: the memoization speedup. *)

val ablation_replication : dataset -> size:int -> int * int
(** (TA replicas, NJ windows) at one size: the tuple replication NJ
    avoids. *)

val replication_report : dataset -> size:int -> string
(** Human-readable rendering of {!ablation_replication}, including the
    replication factor relative to the input size. *)

val print_points : header:string -> point list -> unit
(** Renders a figure's sweep as an aligned text table on stdout. *)
