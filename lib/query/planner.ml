module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Interval = Tpdb_interval.Interval
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Plan_error msg)) fmt

type t = {
  plan : Physical.t;  (* optimized: θ-folded, pruned, safe-tagged *)
  raw : Physical.t;
      (* as lowered (post-reorder, pre-rewrite): what [check] analyzes,
         so diagnostics describe the query as written even when a
         rewrite folds the offending construct away; [check] prepends
         [reorder_notes] so a path through a reordered chain is
         explainable *)
  env : Tpdb_lineage.Prob.env;
  reorder_notes : Analyze.diagnostic list;
  rewrite_notes : Analyze.diagnostic list;
  stats : string -> Stats.t option;
  mutable cost : Cost.t option;  (* estimates, computed on first use *)
}

type side = L of int | R of int

(* In a join chain the left side is a composite whose clashing columns are
   qualified ("a.Loc"); a qualified reference therefore matches the left
   side either through the schema name (base relation) or through the
   qualified column name itself, falling back to the bare name. *)
let resolve_side ~left ~right (qualifier, column) =
  let in_schema schema name = Schema.column_index schema name in
  match qualifier with
  | Some q ->
      let left_hit =
        if String.equal q (Schema.name left) then in_schema left column
        else in_schema left (q ^ "." ^ column)
      in
      let right_hit =
        if String.equal q (Schema.name right) then in_schema right column
        else None
      in
      (match (left_hit, right_hit) with
      | Some i, None -> L i
      | None, Some j -> R j
      | Some _, Some _ -> fail "ambiguous column %s.%s" q column
      | None, None -> (
          (* Deep constituent of the composite left side whose column
             stayed unqualified (no name clash). *)
          match in_schema left column with
          | Some i -> L i
          | None -> fail "unknown column %s.%s" q column))
  | None -> (
      match (in_schema left column, in_schema right column) with
      | Some i, None -> L i
      | None, Some j -> R j
      | Some _, Some _ -> fail "ambiguous column %s" column
      | None, None -> fail "unknown column %s" column)

let swap_op : Ast.comparison -> Theta.op = function
  | `Eq -> `Eq
  | `Ne -> `Ne
  | `Lt -> `Gt
  | `Le -> `Ge
  | `Gt -> `Lt
  | `Ge -> `Le

let theta_atom ~left ~right (atom : Ast.atom) =
  let side = function
    | Ast.Column (q, c) -> `Col (resolve_side ~left ~right (q, c))
    | Ast.Const v -> `Const v
  in
  match (side atom.lhs, side atom.rhs) with
  | `Col (L i), `Col (R j) -> Theta.Cols ((atom.op :> Theta.op), i, j)
  | `Col (R j), `Col (L i) -> Theta.Cols (swap_op atom.op, i, j)
  | `Col (L i), `Const v -> Theta.Left_const ((atom.op :> Theta.op), i, v)
  | `Col (R j), `Const v -> Theta.Right_const ((atom.op :> Theta.op), j, v)
  | `Const v, `Col (L i) -> Theta.Left_const (swap_op atom.op, i, v)
  | `Const v, `Col (R j) -> Theta.Right_const (swap_op atom.op, j, v)
  | `Col (L _), `Col (L _) | `Col (R _), `Col (R _) ->
      fail "condition %s does not relate the two relations"
        (Ast.atom_string atom)
  | `Const _, `Const _ ->
      fail "constant-only condition %s" (Ast.atom_string atom)

(* WHERE predicates run over the output schema; qualified references use
   the qualified column names Schema.join produces ("a.Loc"). *)
let where_predicate schema atoms =
  let resolve = function
    | Ast.Column (q, c) ->
        let name = match q with Some q -> q ^ "." ^ c | None -> c in
        let index =
          match Schema.column_index schema name with
          | Some i -> Some i
          | None -> Schema.column_index schema c
        in
        (match index with
        | Some i -> `Col i
        | None -> fail "unknown column %s in WHERE" name)
    | Ast.Const v -> `Const v
  in
  let compiled =
    List.map (fun (a : Ast.atom) -> (a.op, resolve a.lhs, resolve a.rhs)) atoms
  in
  fun tuple ->
    let fact = Tuple.fact tuple in
    let value = function `Col i -> Fact.get fact i | `Const v -> v in
    List.for_all
      (fun (op, lhs, rhs) ->
        let a = value lhs and b = value rhs in
        if Value.is_null a || Value.is_null b then false
        else
          let c = Value.compare a b in
          match op with
          | `Eq -> c = 0
          | `Ne -> c <> 0
          | `Lt -> c < 0
          | `Le -> c <= 0
          | `Gt -> c > 0
          | `Ge -> c >= 0)
      compiled

let projection_indices schema columns =
  List.map
    (fun name ->
      match Schema.column_index schema name with
      | Some i -> i
      | None -> fail "unknown column %s in SELECT" name)
    columns

(* A temporal predicate x.T REL y.T resolves at the join whose right
   side is one of the named relations and whose accumulated left chain
   contains the other; when the right side is the predicate's LEFT
   operand the relation is inverted ([s.T AFTER r.T] seen from [r] is
   BEFORE). *)
let resolve_temporal ~left_names ~right_name (ta : Ast.temporal_atom) =
  if String.equal ta.t_lhs ta.t_rhs then
    fail "temporal predicate %s relates a relation to itself"
      (Ast.temporal_atom_string ta);
  let in_left name = List.exists (String.equal name) left_names in
  if in_left ta.t_lhs && String.equal ta.t_rhs right_name then Some ta.t_rel
  else if String.equal ta.t_lhs right_name && in_left ta.t_rhs then
    Some (Interval.allen_inverse ta.t_rel)
  else None

let join_kind : Ast.join_kind -> Nj.join_kind = function
  | Ast.Inner -> Nj.Inner
  | Ast.Left -> Nj.Left
  | Ast.Right -> Nj.Right
  | Ast.Full -> Nj.Full
  | Ast.Anti -> Nj.Anti

(* Catalog cardinalities of both join inputs, for the out-of-core spill
   decision: only base-relation scans with persisted statistics count —
   a composite left side would need the cost model's output estimate,
   and the executor's live counting covers that case anyway. *)
let join_est_rows catalog left right =
  let rows = function
    | Physical.Scan r -> (
        match Catalog.stats catalog (Relation.name r) with
        | Some s -> Some s.Stats.cardinality
        | None -> None)
    | _ -> None
  in
  match (rows left, rows right) with
  | Some l, Some r -> Some (l, r)
  | _ -> None

let plan_select ~parallelism ~sanitize ~prob_cache ~mem_budget catalog
    (s : Ast.select) : Physical.t =
  let lookup name =
    match Catalog.find catalog name with
    | Some r -> r
    | None -> fail "unknown relation %s" name
  in
  let base, _, leftover_temporals =
    (* Left-deep chain in source order. Every join runs on the flat
       struct-of-arrays sweep core, which hash-partitions on an equality
       atom itself and degrades to the single-bucket probe otherwise.
       WHERE-level temporal predicates are folded into the join whose
       sides they name. *)
    List.fold_left
      (fun (acc, left_names, pending) (j : Ast.join) ->
        let right = lookup j.rel in
        let theta =
          Theta.of_atoms
            (List.map
               (theta_atom ~left:(Physical.schema acc)
                  ~right:(Relation.schema right))
               j.on)
        in
        let resolved, pending =
          List.partition_map
            (fun ta ->
              match resolve_temporal ~left_names ~right_name:j.rel ta with
              | Some rel -> Either.Left rel
              | None -> Either.Right ta)
            (j.on_temporal @ pending)
        in
        let allen_compare a b =
          String.compare (Interval.allen_name a) (Interval.allen_name b)
        in
        let theta =
          match List.sort_uniq allen_compare resolved with
          | [] -> theta
          | [ rel ] -> Theta.with_temporal (`Allen rel) theta
          | _ :: _ :: _ ->
              fail "join with %s has more than one temporal predicate" j.rel
        in
        let right = Physical.Scan right in
        ( Physical.Tp_join
            {
              kind = join_kind j.kind;
              parallelism;
              sanitize;
              prob_cache;
              safe_lineage = false;
              mem_budget;
              est_rows = join_est_rows catalog acc right;
              theta;
              left = acc;
              right;
            },
          j.rel :: left_names,
          pending ))
      (Physical.Scan (lookup s.from), [ s.from ], s.where_temporal)
      s.joins
  in
  (match leftover_temporals with
  | [] -> ()
  | ta :: _ ->
      fail "temporal predicate %s does not match any join's sides"
        (Ast.temporal_atom_string ta));
  let with_where =
    match s.where with
    | [] -> base
    | atoms ->
        Physical.Filter
          {
            description = Ast.conj_string atoms;
            predicate = where_predicate (Physical.schema base) atoms;
            child = base;
          }
  in
  let with_slice =
    match s.slice with
    | None -> with_where
    | Some (Ast.At t) ->
        Physical.Timeslice { window = Interval.make t (t + 1); child = with_where }
    | Some (Ast.During (a, b)) ->
        if a >= b then fail "DURING window [%d,%d) is empty" a b;
        Physical.Timeslice { window = Interval.make a b; child = with_where }
  in
  let child_schema = Physical.schema with_slice in
  let projected_schema columns =
    try Schema.make ~name:(Schema.name child_schema) columns
    with Invalid_argument msg -> fail "bad projection: %s" msg
  in
  let column_index name =
    match Schema.column_index child_schema name with
    | Some i -> i
    | None -> fail "unknown column %s" name
  in
  let with_order_limit plan =
    match (s.order_by, s.limit) with
    | None, None -> plan
    | order, _ ->
        let plan_schema = Physical.schema plan in
        let key_compare =
          match order with
          | None -> fun _ _ -> 0
          | Some (key, direction) ->
              let base =
                match key with
                | Ast.By_probability ->
                    fun a b -> Float.compare (Tuple.p a) (Tuple.p b)
                | Ast.By_start ->
                    fun a b ->
                      Interval.compare_start (Tuple.iv a) (Tuple.iv b)
                | Ast.By_column name -> (
                    match Schema.column_index plan_schema name with
                    | Some i ->
                        fun a b ->
                          Value.compare
                            (Fact.get (Tuple.fact a) i)
                            (Fact.get (Tuple.fact b) i)
                    | None -> fail "unknown column %s in ORDER BY" name)
              in
              (match direction with
              | Ast.Asc -> base
              | Ast.Desc -> fun a b -> base b a)
        in
        let description =
          (match order with
          | None -> "input order"
          | Some (key, direction) ->
              Printf.sprintf "%s%s"
                (match key with
                | Ast.By_column c -> c
                | Ast.By_probability -> "p"
                | Ast.By_start -> "ts")
                (match direction with Ast.Asc -> "" | Ast.Desc -> " desc"))
        in
        Physical.Sort_limit
          { description; compare = key_compare; limit = s.limit; child = plan }
  in
  with_order_limit
  @@
  match s.aggregate with
  | Some aggregate ->
      let spec : Tpdb_setops.Aggregate.spec =
        match aggregate with
        | Ast.Count -> Tpdb_setops.Aggregate.Count
        | Ast.Sum c -> Tpdb_setops.Aggregate.Sum (column_index c)
        | Ast.Avg c -> Tpdb_setops.Aggregate.Avg (column_index c)
      in
      Physical.Aggregate
        {
          group_by = List.map column_index s.group_by;
          spec;
          child = with_slice;
        }
  | None -> (
  match (s.projection, s.distinct) with
  | None, false -> with_slice
  | None, true ->
      (* DISTINCT * : duplicate-eliminate on the full fact. *)
      Physical.Distinct_project
        {
          columns = List.init (Schema.arity child_schema) Fun.id;
          schema = child_schema;
          child = with_slice;
        }
  | Some columns, distinct ->
      let indices = projection_indices child_schema columns in
      let schema = projected_schema columns in
      if distinct then
        Physical.Distinct_project { columns = indices; schema; child = with_slice }
      else Physical.Project { columns = indices; schema; child = with_slice })

(* --- cost-based ordering of inner equi-join chains ---------------------

   A chain of INNER joins is order-independent as a result set (window
   intersection is associative, lineage conjunction commutative), so the
   planner is free to pick the cheapest left-deep order. Candidates are
   permutations of the AST join list (the FROM relation stays leftmost);
   a candidate only survives if it plans without error and produces the
   same output columns as the source order — an explicit SELECT list
   resolves each name against the candidate's join schema, and a name
   whose qualification changed simply fails to resolve, discarding the
   candidate. Scope: every join INNER with at least one equality atom,
   an explicit projection, at most 4 joins (24 permutations), and no
   temporal predicate anywhere in the chain — an Allen atom resolves
   against the *accumulated* left window at whichever join first sees
   both its relations (and is inverted when its left operand is the
   right side), so under a permutation the same atom can constrain a
   different intersection window in a different direction, changing the
   result. Only all-Overlap chains are provably order-independent. *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y != x) l)))
        l

let reorderable (s : Ast.select) =
  List.length s.joins >= 2
  && List.length s.joins <= 4
  && s.projection <> None
  && s.where_temporal = []
  && List.for_all
       (fun (j : Ast.join) ->
         j.kind = Ast.Inner
         && j.on_temporal = []
         && List.exists (fun (a : Ast.atom) -> a.op = `Eq) j.on)
       s.joins

let order_joins ~build ~stats (s : Ast.select) source_plan =
  if not (reorderable s) then (source_plan, [])
  else begin
    let source_cost = (Cost.root (Cost.of_plan ~stats source_plan)).Cost.cost in
    let source_columns =
      Tpdb_relation.Schema.columns (Physical.schema source_plan)
    in
    let best =
      List.fold_left
        (fun best joins ->
          match build { s with Ast.joins } with
          | exception Plan_error _ -> best
          | candidate ->
              if
                List.equal String.equal source_columns
                  (Tpdb_relation.Schema.columns (Physical.schema candidate))
              then
                let cost =
                  (Cost.root (Cost.of_plan ~stats candidate)).Cost.cost
                in
                match best with
                | Some (_, _, best_cost) when best_cost <= cost -> best
                | Some _ | None -> Some (candidate, joins, cost)
              else best)
        None
        (List.tl (permutations s.joins))
    in
    match best with
    | Some (candidate, joins, cost) when cost < source_cost ->
        let order rels = String.concat " \xe2\x8b\x88 " rels in
        ( candidate,
          [
            Analyze.diagnostic ~severity:Analyze.Note ~code:"join-reordered"
              ~path:"plan"
              (Printf.sprintf
                 "inner equi-join chain reordered by estimated cost: %s \
                  (est cost %.0f) instead of %s (est cost %.0f)"
                 (order (s.from :: List.map (fun (j : Ast.join) -> j.rel) joins))
                 cost
                 (order
                    (s.from
                    :: List.map (fun (j : Ast.join) -> j.rel) s.joins))
                 source_cost);
          ] )
    | Some _ | None -> (source_plan, [])
  end

let plan ?(parallelism = 1) ?sanitize ?(prob_cache = true) ?(mem_budget = 0)
    catalog (query : Ast.t) =
  if parallelism < 1 then fail "parallelism must be at least 1";
  if mem_budget < 0 then fail "mem-budget must not be negative";
  let sanitize =
    match sanitize with
    | Some b -> b
    | None -> Tpdb_windows.Invariant.env_enabled ()
  in
  let env = Catalog.env catalog in
  let stats name = Catalog.stats catalog name in
  let finish raw reorder_notes =
    let plan, rewrite_notes = Analyze.optimize ~stats raw in
    { plan; raw; env; reorder_notes; rewrite_notes; stats; cost = None }
  in
  match query with
  | Ast.Select s ->
      let build s =
        plan_select ~parallelism ~sanitize ~prob_cache ~mem_budget catalog s
      in
      let source = build s in
      let chosen, reorder_notes = order_joins ~build ~stats s source in
      finish chosen reorder_notes
  | Ast.Set (kind, a, b) ->
      let kind =
        match kind with
        | Ast.Union -> `Union
        | Ast.Intersect -> `Intersect
        | Ast.Except -> `Except
      in
      let build = plan_select ~parallelism ~sanitize ~prob_cache ~mem_budget catalog in
      let left = build a and right = build b in
      finish
        (Physical.Set_op
           {
             kind;
             parallelism;
             sanitize;
             prob_cache;
             mem_budget;
             est_rows = join_est_rows catalog left right;
             left;
             right;
           })
        []

let estimates t =
  match t.cost with
  | Some c -> c
  | None ->
      let c = Cost.of_plan ~stats:t.stats t.plan in
      t.cost <- Some c;
      c

let annotate t node =
  let est = Cost.annotate (estimates t) node in
  match node with
  | Physical.Tp_join { safe_lineage = true; _ } ->
      est ^ " [lineage: read-once]"
  | _ -> est

let explain t = Physical.explain ~annotate:(annotate t) t.plan
let fingerprint t = Physical.fingerprint t.plan

(* [raw] is the post-reorder lowering, so when the planner picked a
   different join order the [join-reordered] note leads the report —
   otherwise diagnostic paths could name a chain the user never wrote. *)
let check t = t.reorder_notes @ Analyze.check t.raw

(* Deep analysis runs on the raw plan: the dry fold/prune passes inside
   [Analyze.check_deep] then rederive exactly the rewrites [optimize]
   applied, so the report covers them without double-counting stored
   notes, and base diagnostics still describe the query as written. *)
let check_deep t =
  t.reorder_notes @ Analyze.check_deep ~stats:t.stats t.raw

let notes t = t.reorder_notes @ t.rewrite_notes

let run_analyze t =
  Physical.analyze ~estimate:(Cost.rows (estimates t)) ~env:t.env t.plan

let env t = t.env
let run t = Physical.to_relation ~env:t.env t.plan
let stream t = Physical.execute ~env:t.env t.plan

let run_string catalog input = run (plan catalog (Parser.parse input))
