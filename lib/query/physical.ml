module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Prob = Tpdb_lineage.Prob
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Projection = Tpdb_setops.Projection
module Aggregate = Tpdb_setops.Aggregate
module Metrics = Tpdb_obs.Metrics
module Trace = Tpdb_obs.Trace
module Clock = Tpdb_obs.Clock

type t =
  | Scan of Relation.t
  | Filter of { description : string; predicate : Tuple.t -> bool; child : t }
  | Project of { columns : int list; schema : Schema.t; child : t }
  | Tp_join of {
      kind : Nj.join_kind;
      parallelism : int;
      sanitize : bool;
      prob_cache : bool;
      safe_lineage : bool;
      mem_budget : int;  (* bytes; 0 = Nj's default (TPDB_MEM_BUDGET) *)
      est_rows : (int * int) option;  (* catalog cardinalities for spill sizing *)
      theta : Theta.t;
      left : t;
      right : t;
    }
  | Distinct_project of { columns : int list; schema : Schema.t; child : t }
  | Timeslice of { window : Tpdb_interval.Interval.t; child : t }
  | Aggregate of { group_by : int list; spec : Aggregate.spec; child : t }
  | Sort_limit of {
      description : string;
      compare : Tuple.t -> Tuple.t -> int;
      limit : int option;
      child : t;
    }
  | Set_op of {
      kind : Nj.set_kind;
      parallelism : int;
      sanitize : bool;
      prob_cache : bool;
      mem_budget : int;
      est_rows : (int * int) option;
      left : t;
      right : t;
    }

let rec schema = function
  | Scan r -> Relation.schema r
  | Filter { child; _ } | Timeslice { child; _ } | Sort_limit { child; _ } ->
      schema child
  | Project { schema = s; _ } | Distinct_project { schema = s; _ } -> s
  | Aggregate { group_by; spec; child } ->
      Aggregate.output_schema ~group_by spec (schema child)
  | Tp_join { kind = Nj.Anti; left; right; _ } ->
      let l = schema left and r = schema right in
      Schema.rename (Schema.name l ^ "_anti_" ^ Schema.name r) l
  | Tp_join { left; right; _ } -> Schema.join (schema left) (schema right)
  | Set_op { kind; left; right; _ } ->
      Nj.set_op_schema kind (schema left) (schema right)

(* Span label of one operator node, e.g. [op:tp-join:left-outer]. *)
let op_name = function
  | Scan r -> "scan:" ^ Relation.name r
  | Filter _ -> "filter"
  | Project _ -> "project"
  | Distinct_project _ -> "distinct-project"
  | Timeslice _ -> "timeslice"
  | Aggregate _ -> "aggregate"
  | Sort_limit _ -> "sort-limit"
  | Tp_join { kind; _ } -> "tp-join:" ^ Nj.kind_name kind
  | Set_op { kind; _ } -> "set-op:" ^ Nj.set_kind_name kind

(* [mem_budget = 0] means "not set here": leave the argument out so
   Nj's own TPDB_MEM_BUDGET fallback still applies. *)
let nj_options ~parallelism ~sanitize ~prob_cache ~static_safe ~mem_budget
    ~est_rows =
  Nj.options ~parallelism ~sanitize ~prob_cache ~static_safe
    ?mem_budget:(if mem_budget > 0 then Some mem_budget else None)
    ?est_rows ()

let rec to_relation ~env plan =
  if Trace.enabled () then
    Trace.with_span ~cat:"operator" (op_name plan) (fun () -> eval ~env plan)
  else eval ~env plan

and eval ~env plan =
  match plan with
  | Scan r -> r
  | Filter { predicate; child; _ } ->
      Relation.filter predicate (to_relation ~env child)
  | Timeslice { window; child } ->
      Relation.timeslice window (to_relation ~env child)
  | Project { columns; schema; child } ->
      let projected tp =
        Tuple.make
          ~fact:(Fact.project columns (Tuple.fact tp))
          ~lineage:(Tuple.lineage tp) ~iv:(Tuple.iv tp) ~p:(Tuple.p tp)
      in
      Relation.of_tuples schema
        (List.map projected (Relation.tuples (to_relation ~env child)))
  | Distinct_project { columns; child; _ } ->
      Projection.project ~env ~columns (to_relation ~env child)
  | Aggregate { group_by; spec; child } ->
      Aggregate.sequenced ~env ~group_by spec (to_relation ~env child)
  | Sort_limit { compare = cmp; limit; child; _ } ->
      let input = to_relation ~env child in
      let sorted = List.stable_sort cmp (Relation.tuples input) in
      let limited =
        match limit with
        | None -> sorted
        | Some n -> List.filteri (fun i _ -> i < n) sorted
      in
      Relation.of_tuples (Relation.schema input) limited
  | Tp_join
      {
        kind;
        parallelism;
        sanitize;
        prob_cache;
        safe_lineage;
        mem_budget;
        est_rows;
        theta;
        left;
        right;
      } ->
      let options =
        nj_options ~parallelism ~sanitize ~prob_cache ~static_safe:safe_lineage
          ~mem_budget ~est_rows
      in
      Nj.join ~options ~env ~kind ~theta (to_relation ~env left)
        (to_relation ~env right)
  | Set_op
      { kind; parallelism; sanitize; prob_cache; mem_budget; est_rows; left; right }
    ->
      let options =
        nj_options ~parallelism ~sanitize ~prob_cache ~static_safe:false
          ~mem_budget ~est_rows
      in
      Nj.set_op ~options ~env ~kind (to_relation ~env left)
        (to_relation ~env right)

(* Filters and projections stream over the child's sequence; blocking
   nodes (joins, set operations, distinct) fall back to [to_relation] for
   their inputs and stream their own output. *)
let rec execute ~env plan =
  match plan with
  | Scan r -> Relation.to_seq r
  | Filter { predicate; child; _ } -> Seq.filter predicate (execute ~env child)
  | Timeslice { window; child } ->
      Seq.filter_map
        (fun tp ->
          Tpdb_interval.Interval.clamp ~within:window (Tuple.iv tp)
          |> Option.map (fun iv ->
                 Tuple.make ~fact:(Tuple.fact tp) ~lineage:(Tuple.lineage tp)
                   ~iv ~p:(Tuple.p tp)))
        (execute ~env child)
  | Project { columns; child; _ } ->
      Seq.map
        (fun tp ->
          Tuple.make
            ~fact:(Fact.project columns (Tuple.fact tp))
            ~lineage:(Tuple.lineage tp) ~iv:(Tuple.iv tp) ~p:(Tuple.p tp))
        (execute ~env child)
  | Distinct_project _ | Tp_join _ | Set_op _ | Aggregate _ | Sort_limit _ ->
      fun () -> Relation.to_seq (to_relation ~env plan) ()

(* Every join runs on the flat kernel. The EXPLAIN text and the plan
   shape keep the name of the sweep, so goldens and fingerprints stay
   byte-identical. *)
let executor = "flat"

let kind_string = function
  | Nj.Inner -> "TP Inner Join"
  | Nj.Anti -> "TP Anti Join"
  | Nj.Left -> "TP Left Outer Join"
  | Nj.Right -> "TP Right Outer Join"
  | Nj.Full -> "TP Full Outer Join"

let jobs_string parallelism =
  if parallelism > 1 then Printf.sprintf "; jobs: %d" parallelism else ""

let sanitize_string sanitize = if sanitize then "; sanitize" else ""

(* The cache is the default: only the unusual configuration is shown, so
   existing EXPLAIN expectations stay byte-identical. *)
let prob_cache_string prob_cache = if prob_cache then "" else "; prob-cache: off"

(* Off by default; shown in MB when it divides evenly, else in bytes. *)
let mem_budget_string budget =
  if budget <= 0 then ""
  else if budget mod (1024 * 1024) = 0 then
    Printf.sprintf "; mem-budget: %d MB" (budget / (1024 * 1024))
  else Printf.sprintf "; mem-budget: %d B" budget

(* Shared by explain and analyze: the one-line description of a node. *)
let describe ~child_schema plan =
  match plan with
  | Scan r -> Printf.sprintf "Scan %s (%d tuples)" (Relation.name r) (Relation.cardinality r)
  | Filter { description; _ } -> Printf.sprintf "Filter (%s)" description
  | Timeslice { window; _ } ->
      Printf.sprintf "Timeslice (%s)" (Tpdb_interval.Interval.to_string window)
  | Project { schema = s; _ } ->
      Printf.sprintf "Project (%s)" (String.concat ", " (Schema.columns s))
  | Distinct_project { schema = s; _ } ->
      Printf.sprintf "Distinct TP Project (%s; lineage disjunction)"
        (String.concat ", " (Schema.columns s))
  | Tp_join
      {
        kind;
        parallelism;
        sanitize;
        prob_cache;
        mem_budget;
        theta;
        left;
        right;
        _;
      } ->
      Printf.sprintf
        "%s (NJ pipeline: overlap[%s] -> LAWAU -> LAWAN; \xce\xb8: %s%s%s%s%s)"
        (kind_string kind) executor
        (Theta.to_string ~left:(child_schema left) ~right:(child_schema right) theta)
        (jobs_string parallelism)
        (sanitize_string sanitize)
        (prob_cache_string prob_cache)
        (mem_budget_string mem_budget)
  | Aggregate { spec; _ } ->
      Printf.sprintf "Sequenced Aggregate (%s; expectation per witness-constant segment)"
        (match spec with
        | Aggregate.Count -> "COUNT(*)"
        | Aggregate.Sum c -> Printf.sprintf "SUM(#%d)" c
        | Aggregate.Avg c -> Printf.sprintf "AVG(#%d)" c)
  | Sort_limit { description; limit; _ } ->
      Printf.sprintf "Sort%s (%s)"
        (match limit with
        | None -> ""
        | Some n -> Printf.sprintf " + Limit %d" n)
        description
  | Set_op { kind; _ } ->
      Printf.sprintf "TP %s (windows)"
        (match kind with
        | `Union -> "Union"
        | `Intersect -> "Intersect"
        | `Except -> "Except")

(* The canonical shape string behind [fingerprint]: the logical and
   physical structure of the optimized plan — operators, relation names,
   column lists, θ (rendered against the child schemas, so renames
   matter), join kind and executor — but none of the runtime execution
   knobs (parallelism, sanitize, prob_cache, safe_lineage): the same
   optimized plan run with different jobs or checks is the same plan,
   which is what the prepared-plan cache and the query log want to key
   on. *)
let rec shape plan =
  match plan with
  | Scan r -> Printf.sprintf "scan(%s)" (Relation.name r)
  | Filter { description; child; _ } ->
      Printf.sprintf "filter(%s;%s)" description (shape child)
  | Project { columns; child; _ } ->
      Printf.sprintf "project(%s;%s)"
        (String.concat "," (List.map string_of_int columns))
        (shape child)
  | Distinct_project { columns; child; _ } ->
      Printf.sprintf "distinct-project(%s;%s)"
        (String.concat "," (List.map string_of_int columns))
        (shape child)
  | Timeslice { window; child } ->
      Printf.sprintf "timeslice(%s;%s)"
        (Tpdb_interval.Interval.to_string window)
        (shape child)
  | Aggregate { group_by; spec; child } ->
      Printf.sprintf "aggregate(%s;%s;%s)"
        (String.concat "," (List.map string_of_int group_by))
        (match spec with
        | Aggregate.Count -> "count"
        | Aggregate.Sum c -> Printf.sprintf "sum:%d" c
        | Aggregate.Avg c -> Printf.sprintf "avg:%d" c)
        (shape child)
  | Sort_limit { description; limit; child; _ } ->
      Printf.sprintf "sort(%s;%s;%s)" description
        (match limit with None -> "-" | Some n -> string_of_int n)
        (shape child)
  | Tp_join { kind; theta; left; right; _ } ->
      Printf.sprintf "tp-join(%s;%s;%s;%s;%s)" (Nj.kind_name kind) executor
        (Theta.to_string ~left:(schema left) ~right:(schema right) theta)
        (shape left) (shape right)
  | Set_op { kind; left; right; _ } ->
      Printf.sprintf "set-op(%s;%s;%s)" (Nj.set_kind_name kind) (shape left)
        (shape right)

(* FNV-1a 64-bit over the shape string: stable across runs and processes
   (no functorial hashing, no randomization), cheap, and 16 hex digits
   make a readable grouping key. *)
let fingerprint plan =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    (shape plan);
  Printf.sprintf "%016Lx" !h

let children = function
  | Scan _ -> []
  | Filter { child; _ }
  | Timeslice { child; _ }
  | Project { child; _ }
  | Distinct_project { child; _ }
  | Aggregate { child; _ }
  | Sort_limit { child; _ } ->
      [ child ]
  | Tp_join { left; right; _ } | Set_op { left; right; _ } -> [ left; right ]

(* Re-roots a plan onto pre-materialized child relations, so each node can
   be timed in isolation. *)
let with_children plan inputs =
  match (plan, inputs) with
  | Scan _, [] -> plan
  | Filter f, [ child ] -> Filter { f with child = Scan child }
  | Timeslice t, [ child ] -> Timeslice { t with child = Scan child }
  | Project p, [ child ] -> Project { p with child = Scan child }
  | Distinct_project p, [ child ] -> Distinct_project { p with child = Scan child }
  | Aggregate a, [ child ] -> Aggregate { a with child = Scan child }
  | Sort_limit s, [ child ] -> Sort_limit { s with child = Scan child }
  | Tp_join j, [ left; right ] ->
      Tp_join { j with left = Scan left; right = Scan right }
  | Set_op s, [ left; right ] -> Set_op { s with left = Scan left; right = Scan right }
  | _ -> invalid_arg "Physical.with_children: arity mismatch"

(* Render top-down but execute bottom-up: execute children first, time
   this node over the materialized inputs, then emit this node's line
   before the children's blocks. Window counts come from the metrics
   sink by before/after deltas — children run outside the parent's
   delta, so the numbers are exclusive, like the wall time. When the
   caller has no sink installed a private one is used for the run. *)
(* q-error of an estimate against the observed row count: max of the two
   ratios, with both sides floored at one row so empty results stay
   finite. *)
let q_error ~est ~actual =
  let est = Float.max 1.0 est
  and actual = Float.max 1.0 (float_of_int actual) in
  Float.max (est /. actual) (actual /. est)

let q_error_threshold = 16.0

let analyze ?(estimate = fun _ -> None) ~env plan =
  let metrics, private_sink =
    match Metrics.active () with
    | Some m -> (m, false)
    | None ->
        let m = Metrics.create () in
        Metrics.install m;
        (m, true)
  in
  Fun.protect
    ~finally:(fun () -> if private_sink then Metrics.uninstall ())
  @@ fun () ->
  let window_counts () =
    ( Metrics.get metrics Metrics.Windows_overlapping,
      Metrics.get metrics Metrics.Windows_unmatched,
      Metrics.get metrics Metrics.Windows_negating )
  in
  let cache_counts () =
    ( Metrics.get metrics Metrics.Prob_cache_hits,
      Metrics.get metrics Metrics.Prob_cache_misses )
  in
  let spill_counts () =
    ( Metrics.get metrics Metrics.Spill_bytes,
      Metrics.get metrics Metrics.Spill_partitions,
      Metrics.get metrics Metrics.Pool_hits,
      Metrics.get metrics Metrics.Pool_misses )
  in
  let rec run indent plan =
    let child_results = List.map (run (indent + 1)) (children plan) in
    let child_relations = List.map (fun (r, _, _) -> r) child_results in
    let rerooted = with_children plan child_relations in
    let wo0, wu0, wn0 = window_counts () in
    let ch0, cm0 = cache_counts () in
    let sb0, sp0, ph0, pm0 = spill_counts () in
    let t0 = Unix.gettimeofday () in
    let result = to_relation ~env rerooted in
    let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    let wo1, wu1, wn1 = window_counts () in
    let ch1, cm1 = cache_counts () in
    let sb1, sp1, ph1, pm1 = spill_counts () in
    let windows =
      let wo = wo1 - wo0 and wu = wu1 - wu0 and wn = wn1 - wn0 in
      if wo + wu + wn = 0 then ""
      else Printf.sprintf " [windows: WO=%d WU=%d WN=%d]" wo wu wn
    in
    let cache =
      let hits = ch1 - ch0 and misses = cm1 - cm0 in
      if hits + misses = 0 then ""
      else Printf.sprintf " [prob-cache: %d hits, %d misses]" hits misses
    in
    let spill =
      (* only spilled nodes get the column, so in-RAM runs stay byte-identical *)
      let parts = sp1 - sp0 in
      if parts = 0 then ""
      else
        let hits = ph1 - ph0 and misses = pm1 - pm0 in
        Printf.sprintf " [spill: %d partitions, %.1f MB, pool %d/%d hits]"
          parts
          (float_of_int (sb1 - sb0) /. (1024.0 *. 1024.0))
          hits (hits + misses)
    in
    let rows = Relation.cardinality result in
    let est_column, est_warning =
      match estimate plan with
      | None -> ("", [])
      | Some est ->
          let q = q_error ~est ~actual:rows in
          let column = Printf.sprintf " est=%.0f q=%.1f" est q in
          let warning =
            if q > q_error_threshold then
              [
                Printf.sprintf
                  "%s!! cost-q-error: estimated %.0f row(s) but saw %d \
                   (q-error %.1f > %.1f) — stats are stale or missing; \
                   run `tpdb_cli stats`"
                  (String.make ((2 * indent) + 2) ' ')
                  est rows q q_error_threshold;
              ]
            else []
          in
          (column, warning)
    in
    let line =
      Printf.sprintf "%s%s  [rows=%d%s, %s]%s%s%s"
        (String.make (2 * indent) ' ')
        (describe ~child_schema:schema plan)
        rows est_column (Clock.pp_ms ms) windows cache spill
    in
    let block =
      String.concat "\n"
        ((line :: est_warning) @ List.map (fun (_, _, b) -> b) child_results)
    in
    (result, ms, block)
  in
  let result, _, block = run 0 plan in
  (* Quantile footer over the run's distributions: counts are exact,
     p50/p90/p99 come from the log-bucketed histograms (≤ ~6% relative
     error). Only the distributions this run touched are listed. *)
  let footer =
    let line (dist, render) =
      let s = Metrics.dist_snapshot metrics dist in
      if s.Tpdb_obs.Hist.count = 0 then None
      else
        Some
          (Printf.sprintf "  %-22s n=%d p50=%s p90=%s p99=%s max=%s"
             (Metrics.dist_name dist) s.Tpdb_obs.Hist.count
             (render (Tpdb_obs.Hist.quantile s 0.5))
             (render (Tpdb_obs.Hist.quantile s 0.9))
             (render (Tpdb_obs.Hist.quantile s 0.99))
             (render s.Tpdb_obs.Hist.max))
    in
    let plain = string_of_int in
    match
      List.filter_map line
        [
          (Metrics.Partition_size, plain);
          (Metrics.Spill_partition_bytes, plain);
          (Metrics.Pool_hit_rate, plain);
          (Metrics.Domain_busy_ns, Clock.pp_ns);
          (Metrics.Sanitizer_ns, Clock.pp_ns);
          (Metrics.Prob_cache_lookup_ns, Clock.pp_ns);
          (Metrics.Oracle_eval_ns, Clock.pp_ns);
          (Metrics.Analysis_ns, Clock.pp_ns);
        ]
    with
    | [] -> []
    | lines -> "Distributions:" :: lines
  in
  (result, String.concat "\n" (block :: footer))

let explain ?(annotate = fun _ -> "") plan =
  let buffer = Buffer.create 256 in
  let rec render indent plan =
    Buffer.add_string buffer
      (String.make (2 * indent) ' '
      ^ describe ~child_schema:schema plan
      ^ annotate plan ^ "\n");
    List.iter (render (indent + 1)) (children plan)
  in
  render 0 plan;
  (* drop the trailing newline *)
  let s = Buffer.contents buffer in
  if String.length s > 0 && s.[String.length s - 1] = '\n' then
    String.sub s 0 (String.length s - 1)
  else s
