module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Prob = Tpdb_lineage.Prob
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Flat_join = Tpdb_windows.Flat_join
module Vec = Tpdb_engine.Flat.Vec
module Invariant = Tpdb_windows.Invariant
module Pool = Tpdb_engine.Pool
module Parallel = Tpdb_engine.Parallel
module Spill = Tpdb_storage.Spill
module Metrics = Tpdb_obs.Metrics
module Trace = Tpdb_obs.Trace

type options = {
  parallelism : int;
  sanitize : bool;
  static_safe : bool;
  mem_budget : int;
  est_rows : (int * int) option;
}

(* Like the sanitizer's TPDB_SANITIZE and the CLI's TPDB_SLOW_MS: the
   environment supplies a default (megabytes), an explicit builder
   argument wins. *)
let env_mem_budget () =
  match Sys.getenv_opt "TPDB_MEM_BUDGET" with
  | None -> 0
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb > 0 -> mb * 1024 * 1024
      | _ -> 0)

let options ?(parallelism = 1) ?sanitize ?(static_safe = false) ?mem_budget
    ?est_rows () =
  if parallelism < 1 then
    invalid_arg "Nj.options: parallelism must be at least 1";
  let sanitize =
    match sanitize with Some b -> b | None -> Invariant.env_enabled ()
  in
  let mem_budget =
    match mem_budget with Some b -> b | None -> env_mem_budget ()
  in
  if mem_budget < 0 then invalid_arg "Nj.options: mem_budget must be >= 0";
  { parallelism; sanitize; static_safe; mem_budget; est_rows }

let default_options = options ()
let parallelism o = o.parallelism
let sanitize o = o.sanitize
let static_safe o = o.static_safe
let mem_budget o = o.mem_budget
let est_rows o = o.est_rows

let effective_parallelism o theta =
  if o.parallelism <= 1 then 1
  else match Theta.equi_keys theta with None -> 1 | Some _ -> o.parallelism

(* --- domain-parallel partitioned sweeps ------------------------------

   The windows of one equi-key group depend only on the tuples of that
   key, so both inputs are sharded on the key's hash, the sweep runs per
   partition on the shared domain pool, and the streams merge back in
   group order (Window.compare_group — the same order the sequential
   sweep emits, because it sorts r by Tuple.compare_fact_start, which
   compares exactly the group fields). Equal facts hash alike, so a
   group never spans partitions and the merged stream is identical to
   the sequential one. Only the sweep (with the probabilities it
   takes on a statically safe plan) is parallel; output formation
   (lineage concatenation, the other probabilities) stays on the calling
   domain. *)

(* Runs [sweep : Relation.t -> Relation.t -> 'a] once per partition on
   the pool, the inputs sharded on the equi-key columns [keys]. *)
let partitioned ~partitions ~keys:(left_cols, right_cols) ~sweep r s =
  let key cols tp = Fact.hash (Fact.key cols (Tuple.fact tp)) in
  let parts =
    Parallel.shard2 ~partitions ~left_key:(key left_cols)
      ~right_key:(key right_cols) (Relation.tuples r) (Relation.tuples s)
  in
  let rschema = Relation.schema r and sschema = Relation.schema s in
  Parallel.map ~pool:(Pool.default ())
    (fun i ->
      let rp, sp = parts.(i) in
      if Metrics.enabled () then begin
        Metrics.observe Metrics.Partition_size
          (List.length rp + List.length sp);
        Metrics.incr Metrics.Partition_sweeps
      end;
      let run () =
        Metrics.time Metrics.Domain_busy_ns (fun () ->
            sweep (Relation.of_tuples rschema rp) (Relation.of_tuples sschema sp))
      in
      if Trace.enabled () then
        Trace.with_span ~cat:"partition" (Printf.sprintf "partition-%d" i) run
      else run ())
    (* indices, not (i, part) pairs: an array made from a young pair
       forces a minor collection past 256 partitions (DESIGN.md §7) *)
    (Array.init (Array.length parts) Fun.id)

let merge ~options parts =
  let run () =
    Parallel.merge_grouped
      ?check:(if options.sanitize then Some Invariant.merge_check else None)
      ~compare_group:Window.compare_group parts
  in
  if Trace.enabled () then Trace.with_span ~cat:"merge" "merge-grouped" run
  else run ()

(* --- out-of-core spilling at the partition boundary -------------------

   When a memory budget is set and the estimated working set exceeds it,
   both inputs are hash-partitioned on the equi-key into one columnar
   spill file (Spill), then each partition pair is read back through a
   budget-sized buffer pool and swept one pair at a time, strictly
   sequentially — peak memory is one partition pair plus the
   accumulated window output, the Grace bound. The partitioner
   composes the same fact-key hash and Parallel.bucket_of as the in-RAM
   parallel path and the per-partition streams go through the same
   group-order merge, so spilled output is tuple-for-tuple identical to
   the in-RAM result (the oracle's spilling config proves it). *)

let key_hash cols tp = Fact.hash (Fact.key cols (Tuple.fact tp))

(* [Some (keys, partitions)] when the join should spill: a budget is
   set, θ has an equi-key to partition on, and the working-set estimate
   (planner Stats cardinalities when available, live counting
   otherwise; sampled encoded tuple widths either way) exceeds the
   budget. *)
let spill_plan ~options ~theta r s =
  if options.mem_budget <= 0 then None
  else
    match Theta.equi_keys theta with
    | None -> None
    | Some keys ->
        let lrows, srows =
          match options.est_rows with
          | Some (l, sr) -> (Some l, Some sr)
          | None -> (None, None)
        in
        let est =
          Spill.estimate_bytes ?rows:lrows r + Spill.estimate_bytes ?rows:srows s
        in
        if est <= options.mem_budget then None
        else Some (keys, Spill.partitions_for ~budget:options.mem_budget ~est)

let spill_span name f =
  if Trace.enabled () then Trace.with_span ~cat:"spill" name f else f ()

(* Partition both input streams to disk, sweep the partition pairs one
   at a time through the pool, return the per-partition results in
   partition order. [sweep] is whatever the caller runs per pair (a
   window-stage pass or a tracking sweep). *)
let spilled ~partitions ~keys:(left_cols, right_cols) ~budget ~sweep left right
    =
  let bucket cols tp = Parallel.bucket_of ~partitions (key_hash cols tp) in
  let spill =
    spill_span "spill-partition" (fun () ->
        Spill.partition_pair ~partitions ~pool_pages:(Spill.pool_pages ~budget)
          ~left_key:(bucket left_cols) ~right_key:(bucket right_cols) left
          right)
  in
  Fun.protect
    ~finally:(fun () -> Spill.finish spill)
    (fun () ->
      Array.init partitions (fun i ->
          spill_span
            (Printf.sprintf "spill-sweep-%d" i)
            (fun () ->
              let rp = Spill.read_left spill i in
              let sp = Spill.read_right spill i in
              if Metrics.enabled () then begin
                Metrics.observe Metrics.Partition_size
                  (Relation.cardinality rp + Relation.cardinality sp);
                Metrics.incr Metrics.Partition_sweeps
              end;
              Metrics.time Metrics.Domain_busy_ns (fun () -> sweep rp sp))))

let spilled_of_relations ~partitions ~keys ~budget ~sweep r s =
  spilled ~partitions ~keys ~budget ~sweep
    (Relation.schema r, Relation.to_seq r)
    (Relation.schema s, Relation.to_seq s)

(* --- the window pipeline --------------------------------------------- *)

let traced name run =
  if Trace.enabled () then Trace.with_span ~cat:"sweep" name run else run ()

let overlapping w = Window.kind w = Window.Overlapping

(* Feeds the windows of one stage, in stream order, to [emit]: one fused
   pass of the flat kernel over the endpoint arrays (Flat_join), taking
   each window's probability from the sweep when [env] is given, and
   handing each window on as it is built, so a consumer that forms its
   tuple right away lets it die young (the sanitizer collects them
   first, to check them). The pass opens one span per paper stage it
   covers ("lawan" > "lawau" > "overlap", the fused work attributed to
   the innermost), the names EXPLAIN ANALYZE and the query log's stage
   records read; the spans cover the formation the pass feeds, so a
   traced run executes what an untraced one does. *)
let stage_pass ?env ~options (stage : Flat_join.stage) ~theta r s emit =
  let sanitize = options.sanitize in
  let run () =
    if sanitize then
      Array.iter emit (Flat_join.windows ~stage ~sanitize ?env ~theta r s)
    else Flat_join.iter ~stage ?env ~theta r s emit
  in
  match stage with
  | `Wo -> traced "overlap" run
  | `Wuo -> traced "lawau" (fun () -> traced "overlap" run)
  | `Wuon | `Wun ->
      traced "lawan" (fun () -> traced "lawau" (fun () -> traced "overlap" run))

(* One partition (or the whole input, when sequential) of a join that
   tracks both sides — the right and full outer joins and the union —
   into three streams: the left-side windows at stage [left], the right
   side's windows of the matched s tuples at stage [right] (gaps, plus
   negating windows at [`Wun]), and the spanning windows of the
   never-matched s tuples. A [`Wo] left pass is the right outer join's
   and keeps only the overlapping windows. The right side is a second
   pass of the kernel with the sides swapped. *)
let tracked_pass ?env ~options ~left ~right ~theta r s emits =
  let sanitize = options.sanitize in
  let left_emit = emits.(0) and gaps = emits.(1) and spanning = emits.(2) in
  let keep = match left with `Wo -> overlapping | _ -> fun _ -> true in
  stage_pass ?env ~options left ~theta r s (fun w ->
      if keep w then left_emit w);
  traced "right-sweep" (fun () ->
      if sanitize then begin
        let g, u = Flat_join.right ~stage:right ~sanitize ?env ~theta r s in
        Array.iter gaps g;
        Array.iter spanning u
      end
      else Flat_join.iter_right ~stage:right ?env ~theta r s ~gaps ~spanning)

(* A pass feeds each of its window streams, in order, to one consumer.
   A join runs its passes over the whole input, straight into the
   consumers, or once per partition ([run_parts]) into buffers whose
   contents are merged back in group order, stream by stream, and then
   consumed. *)
let per_partition ~options pass run_parts emits =
  let collect rp sp =
    let bufs = Array.map (fun _ -> Vec.create ()) emits in
    pass rp sp (Array.map Vec.push bufs);
    Array.map Vec.contents bufs
  in
  let parts = run_parts collect in
  Array.iteri
    (fun i emit ->
      (* [Vec.of_list], not [Array.map]: an array made from a young
         stream forces a minor collection past 256 partitions
         (DESIGN.md §7) *)
      let streams = Array.fold_right (fun part acc -> part.(i) :: acc) parts [] in
      Array.iter emit (merge ~options (Vec.of_list streams)))
    emits

(* The materialized inputs: spilled to disk when the working set exceeds
   the memory budget (which overrides parallelism — the spilled sweep is
   strictly sequential to keep its memory bound), domain-parallel when
   options and θ allow, sequential otherwise. All three paths produce
   the identical windows. *)
let in_memory ~options ~theta r s pass emits =
  match
    ( spill_plan ~options ~theta r s,
      Theta.equi_keys theta,
      effective_parallelism options theta )
  with
  | Some (keys, partitions), _, _ ->
      per_partition ~options pass
        (fun sweep ->
          spilled_of_relations ~partitions ~keys ~budget:options.mem_budget
            ~sweep r s)
        emits
  | None, Some keys, partitions when partitions > 1 ->
      per_partition ~options pass
        (fun sweep -> partitioned ~partitions ~keys ~sweep r s)
        emits
  | None, _, _ -> pass r s emits

let stage_stream stage ?(options = default_options) ~theta r s () =
  let windows = Vec.create () in
  in_memory ~options ~theta r s
    (fun rp sp emits -> stage_pass ~options stage ~theta rp sp emits.(0))
    [| Vec.push windows |];
  Array.to_seq (Vec.contents windows) ()

let windows_wuo = stage_stream `Wuo
let windows_wuon = stage_stream `Wuon

let env_default env r s =
  match env with Some e -> e | None -> Relation.prob_env [ r; s ]

(* --- output formation per operator ----------------------------------- *)

type join_kind = Inner | Anti | Left | Right | Full

let all_kinds = [ Inner; Anti; Left; Right; Full ]

let kind_name = function
  | Inner -> "inner"
  | Anti -> "anti"
  | Left -> "left-outer"
  | Right -> "right-outer"
  | Full -> "full-outer"

type set_kind = [ `Union | `Intersect | `Except ]

let all_set_kinds = [ `Union; `Intersect; `Except ]

let set_kind_name = function
  | `Union -> "union"
  | `Intersect -> "intersect"
  | `Except -> "except"

(* The left schema, renamed after both operands and the operation. *)
let renamed op rschema sschema =
  Schema.rename
    (Schema.name rschema ^ "_" ^ op ^ "_" ^ Schema.name sschema)
    rschema

let set_op_schema kind =
  renamed
    (match kind with `Union -> "union" | `Intersect -> "isect" | `Except -> "minus")

(* What [form] builds: a join of Table II, or a set operation. *)
type op = Join of join_kind | Set of set_kind

let op_name = function Join kind -> kind_name kind | Set kind -> set_kind_name kind

(* Runs the passes of [op] through [runner] and forms each window's
   output tuple as the window arrives, given only the input schemas — so
   the materialized path ({!join}) and the streamed out-of-core path
   ({!join_spilled}, which never materializes its inputs) share it
   verbatim. The inner join's filter runs inside its pass, so windows
   formation would discard never accumulate across the partition merge
   (peak memory O(output), not O(input), in the regime that spills);
   that is sound because the merge is a stable group-order merge of
   sorted lists, so merging the filtered lists equals filtering the
   merged one. *)
let form ~runner ~options ~env ~op ~theta ~rschema ~sschema =
  (* The probability of every window the sweep did not price comes from
     [Prob.compute], as TA and the oracle compute it. On a statically
     safe plan ([static_safe], set from the planner's read-once
     classification) the sweep prices every window whose partner
     lineages are bare variables, and the rest go through
     [Prob.factorize] — no per-formula read-once check, no BDD fallback;
     the sanitizer's output check cross-validates against
     [Prob.compute], so a misclassified plan fails loudly under
     TPDB_SANITIZE=1. *)
  let prob = (if options.static_safe then Prob.factorize else Prob.compute) env in
  let env = if options.static_safe then Some env else None in
  let pad_r = Schema.arity rschema and pad_s = Schema.arity sschema in
  let tuples = Vec.create () and spanning = Vec.create () in
  let into v side pad w =
    Vec.push v (Concat.tuple_of_window ~prob ~side ~pad w)
  in
  (* the set operations' rows (and the anti join's): r's own fact *)
  let own v kind w = Vec.push v (Concat.tuple_of_set_window ~prob ~kind w) in
  let stage ?(keep = fun _ -> true) stage rp sp emits =
    stage_pass ?env ~options stage ~theta rp sp (fun w ->
        if keep w then emits.(0) w)
  in
  let tracked ~left ~right = tracked_pass ?env ~options ~left ~right ~theta in
  let schema =
    match op with
    | Join Inner ->
        runner
          (stage ~keep:overlapping `Wo)
          [| into tuples Concat.Left pad_s |];
        Schema.join rschema sschema
    | Join Left ->
        runner (stage `Wuon) [| into tuples Concat.Left pad_s |];
        Schema.join rschema sschema
    | Join Anti | Set `Except ->
        runner (stage `Wun) [| own tuples `Except |];
        (match op with Set kind -> set_op_schema kind | Join _ -> renamed "anti")
          rschema sschema
    | Join ((Right | Full) as kind) ->
        runner
          (tracked
             ~left:(match kind with Full -> `Wuon | _ -> `Wo)
             ~right:`Wun)
          [|
            into tuples Concat.Left pad_s;
            into tuples Concat.Right pad_r;
            into spanning Concat.Right pad_r;
          |];
        Schema.join rschema sschema
    | Set `Intersect ->
        runner (stage ~keep:overlapping `Wo) [| own tuples `Intersect |];
        set_op_schema `Intersect rschema sschema
    | Set `Union ->
        (* λr ∨ λs where both hold, then the one side's own lineage:
           r's gaps and spanning windows, s's gaps, s's spanning
           windows *)
        runner
          (tracked ~left:`Wuo ~right:`Wuo)
          [| own tuples `Union; own tuples `Union; own spanning `Union |];
        set_op_schema `Union rschema sschema
  in
  let tuples = Vec.contents tuples and spanning = Vec.contents spanning in
  Relation.of_array schema
    (if Array.length spanning = 0 then tuples
     else Array.append tuples spanning)

(* Counts the output, and under the sanitizer checks every output
   probability against [Prob.compute]. *)
let finish ~options ~env ~span run =
  let result =
    if Trace.enabled () then Trace.with_span ~cat:"join" span run else run ()
  in
  if Metrics.enabled () then
    Metrics.add Metrics.Tuples_out (Relation.cardinality result);
  if options.sanitize then
    Invariant.check_output
      ~recompute:(fun lineage -> Prob.compute env lineage)
      (Relation.tuples result);
  result

(* --- the unified entry point ----------------------------------------- *)

let materialized ~options ?env ~op ~theta r s =
  let env = env_default env r s in
  if Metrics.enabled () then
    Metrics.add Metrics.Tuples_in
      (Relation.cardinality r + Relation.cardinality s);
  finish ~options ~env ~span:("nj-" ^ op_name op) (fun () ->
      form ~runner:(in_memory ~options ~theta r s) ~options ~env ~op ~theta
        ~rschema:(Relation.schema r) ~sschema:(Relation.schema s))

let join ?(options = default_options) ?env ~kind ~theta r s =
  materialized ~options ?env ~op:(Join kind) ~theta r s

(* A set operation is a join under fact equality (null-safe: SQL's set
   operations treat two nulls as not distinct). Its overlapping windows
   carry a per-operation lineage, so the sweep's Table I prices never
   apply: [static_safe] is off. *)
let set_op ?(options = default_options) ?env ~kind r s =
  let columns rel = Schema.columns (Relation.schema rel) in
  if not (List.equal String.equal (columns r) (columns s)) then
    invalid_arg
      (Printf.sprintf "Nj.set_op: operand schemas differ (%s vs %s)"
         (String.concat "," (columns r))
         (String.concat "," (columns s)));
  materialized
    ~options:{ options with static_safe = false }
    ?env ~op:(Set kind)
    ~theta:(Theta.fact_equality (Schema.arity (Relation.schema r)))
    r s

(* Out-of-core join over tuple streams: the inputs are never
   materialized — they stream straight into the spill partitioner — so
   peak memory is one partition pair plus the output, regardless of
   input cardinality. This is the entry the spill-scale bench drives at
   10^6–10^7 tuples. Requires an equi-θ and a positive mem_budget;
   [env] is explicit because the default environment would need the
   materialized inputs. *)
let join_spilled ?(options = default_options) ?partitions ~env ~kind ~theta
    ~left:(rschema, rseq) ~right:(sschema, sseq) () =
  let budget = options.mem_budget in
  if budget <= 0 then
    invalid_arg "Nj.join_spilled: options must carry a positive mem_budget";
  let keys =
    match Theta.equi_keys theta with
    | Some keys -> keys
    | None -> invalid_arg "Nj.join_spilled: theta has no equi keys"
  in
  let partitions =
    match partitions with
    | Some p ->
        if p < 1 then invalid_arg "Nj.join_spilled: partitions must be >= 1"
        else min p 256
    | None -> (
        (* without materialized inputs the width cannot be sampled:
           assume ~48 encoded bytes per tuple under the planner's (or
           caller's) row estimate, falling back to a fixed fan-out *)
        match options.est_rows with
        | Some (l, r) ->
            Spill.partitions_for ~budget ~est:((l + r) * 48 * 8)
        | None -> 64)
  in
  (* the rows are the join's input tuples, counted as they stream into
     the partitioner *)
  let counted seq =
    if Metrics.enabled () then
      Seq.map
        (fun tp ->
          Metrics.incr Metrics.Tuples_in;
          tp)
        seq
    else seq
  in
  let runner pass =
    per_partition ~options pass (fun sweep ->
        spilled ~partitions ~keys ~budget ~sweep
          (rschema, counted rseq)
          (sschema, counted sseq))
  in
  finish ~options ~env ~span:("nj-" ^ kind_name kind ^ "-spilled") (fun () ->
      form ~runner ~options ~env ~op:(Join kind) ~theta ~rschema ~sschema)
