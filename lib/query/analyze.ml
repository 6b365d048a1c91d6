module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Csv = Tpdb_relation.Csv
module Theta = Tpdb_windows.Theta
module Invariant = Tpdb_windows.Invariant
module Nj = Tpdb_joins.Nj
module Prob = Tpdb_lineage.Prob
module Var = Tpdb_lineage.Var
module Formula = Tpdb_lineage.Formula
module Interval = Tpdb_interval.Interval
module Metrics = Tpdb_obs.Metrics
module Json = Tpdb_obs.Json

type severity = Error | Warning | Note

type diagnostic = {
  severity : severity;
  code : string;
  path : string;
  message : string;
}

let diagnostic ~severity ~code ?(path = "-") message =
  { severity; code; path; message }

let errors diags = List.filter (fun d -> d.severity = Error) diags

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let to_string d =
  Printf.sprintf "%s[%s] at %s: %s" (severity_name d.severity) d.code d.path
    d.message

let report diags = String.concat "\n" (List.map to_string diags)

let diagnostic_of_exn = function
  | Csv.Error { path; line; message } ->
      let where =
        match line with
        | Some n -> Printf.sprintf "%s:%d" path n
        | None -> path
      in
      Some (diagnostic ~severity:Error ~code:"csv-load" ~path:where message)
  | Value.Type_error { context; left; right } ->
      Some
        (diagnostic ~severity:Error ~code:"value-type" ~path:context
           (Printf.sprintf "values '%s' and '%s' are not comparable"
              (Value.to_string left) (Value.to_string right)))
  | Invariant.Violation { lemma; group; interval; detail } ->
      Some
        (diagnostic ~severity:Error ~code:"tpsan-violation"
           ~path:(Printf.sprintf "group %s, interval %s" group interval)
           (Printf.sprintf "lemma %S broken: %s" lemma detail))
  | Prob.Unbound_variable v ->
      Some
        (diagnostic ~severity:Error ~code:"unbound-variable"
           ~path:(Var.to_string v)
           (Printf.sprintf
              "lineage variable %s has no marginal probability in the \
               environment — pass an env covering every base variable when \
               joining derived relations"
              (Var.to_string v)))
  | Prob.Vanishing_evidence { p_given; epsilon } ->
      Some
        (diagnostic ~severity:Error ~code:"vanishing-evidence"
           (Printf.sprintf
              "evidence probability %g is below epsilon %g — conditioning \
               would divide by (near) zero"
              p_given epsilon))
  | Tpdb_storage.Buffer_pool.Pinned_eviction { path; index; capacity; pinned } ->
      Some
        (diagnostic ~severity:Error ~code:"pinned-eviction"
           ~path:(Printf.sprintf "%s page %d" path index)
           (Printf.sprintf
              "buffer pool exhausted: all %d of %d cached page(s) are \
               pinned, none can be evicted — the spill executor pinned \
               more pages than the pool's capacity; raise --mem-budget \
               (the pool is sized from it)"
              pinned capacity))
  | Tpdb_storage.Heap_file.Corrupt msg ->
      Some
        (diagnostic ~severity:Error ~code:"heap-file-corrupt"
           (Printf.sprintf "heap file unreadable: %s" msg))
  | Tpdb_storage.Codec.Corrupt msg ->
      Some
        (diagnostic ~severity:Error ~code:"heap-file-corrupt"
           (Printf.sprintf "stored tuple data undecodable: %s" msg))
  | Parser.Parse_error msg ->
      Some (diagnostic ~severity:Error ~code:"parse" msg)
  | Lexer.Lex_error (msg, pos) ->
      Some
        (diagnostic ~severity:Error ~code:"lex"
           ~path:(Printf.sprintf "offset %d" pos)
           msg)
  | _ -> None

(* --- column types ----------------------------------------------------

   A tiny lattice sampled from the data: Unknown (no non-null value
   seen) < Number | Text < Mixed. Number covers I and F, which
   Value.compare orders numerically against each other; comparing
   Number with Text is the classic silently-always-false (for =) or
   rank-ordered (for <) mistake the analyzer exists to catch. *)

type column_type = Unknown | Number | Text | Mixed

let type_name = function
  | Unknown -> "unknown"
  | Number -> "number"
  | Text -> "text"
  | Mixed -> "mixed"

let lub a b =
  match (a, b) with
  | Unknown, t | t, Unknown -> t
  | Number, Number -> Number
  | Text, Text -> Text
  | (Number | Text | Mixed), _ -> Mixed

let type_of_value = function
  | Value.Null -> Unknown
  | Value.I _ | Value.F _ -> Number
  | Value.S _ -> Text

(* Sampling the first rows suffices: workload relations are
   homogeneously typed per column, and a genuinely mixed column is
   reported as such either way. *)
let sample_limit = 256

let relation_types r =
  let arity = Schema.arity (Relation.schema r) in
  let types = Array.make arity Unknown in
  let rec scan n = function
    | [] -> ()
    | _ when n >= sample_limit -> ()
    | tp :: rest ->
        let fact = Tuple.fact tp in
        for i = 0 to arity - 1 do
          types.(i) <- lub types.(i) (type_of_value (Fact.get fact i))
        done;
        scan (n + 1) rest
  in
  scan 0 (Relation.tuples r);
  types

(* --- θ checks --------------------------------------------------------- *)

let atom_string ~left ~right atom =
  Theta.to_string ~left ~right (Theta.of_atoms [ atom ])

(* Can a comparison between these two types ever be meaningful? Unknown
   and Mixed stay silent — there is nothing definite to contradict. *)
let compatible a b =
  match (a, b) with
  | Unknown, _ | _, Unknown | Mixed, _ | _, Mixed -> true
  | Number, Number | Text, Text -> true
  | Number, Text | Text, Number -> false

let op_string : Theta.op -> string = function
  | `Eq -> "="
  | `Ne -> "<>"
  | `Lt -> "<"
  | `Le -> "<="
  | `Gt -> ">"
  | `Ge -> ">="
  | `Not_distinct -> "is not distinct from"

(* Satisfiability of the constant constraints accumulated on one column:
   equalities must agree with each other and with every bound, and the
   lower bounds must stay below the upper bounds. *)
let unsat_reason constraints =
  let sat_one v (op, c) =
    let cmp = Value.compare v c in
    match (op : Theta.op) with
    | `Eq | `Not_distinct -> cmp = 0
    | `Ne -> cmp <> 0
    | `Lt -> cmp < 0
    | `Le -> cmp <= 0
    | `Gt -> cmp > 0
    | `Ge -> cmp >= 0
  in
  let eqs = List.filter_map (function `Eq, v -> Some v | _ -> None) constraints in
  match eqs with
  | v :: _ -> (
      match List.find_opt (fun c -> not (sat_one v c)) constraints with
      | Some (op, c) ->
          Some
            (Printf.sprintf "= %s contradicts %s %s" (Value.to_string v)
               (op_string op) (Value.to_string c))
      | None -> None)
  | [] ->
      (* strongest lower bound vs strongest upper bound *)
      let lower =
        List.filter_map
          (function (`Gt | `Ge) as op, v -> Some (op, v) | _ -> None)
          constraints
      and upper =
        List.filter_map
          (function (`Lt | `Le) as op, v -> Some (op, v) | _ -> None)
          constraints
      in
      let stronger_low (o1, v1) (o2, v2) =
        let c = Value.compare v1 v2 in
        if c <> 0 then c > 0 else o1 = `Gt && o2 = `Ge
      in
      let stronger_high (o1, v1) (o2, v2) =
        let c = Value.compare v1 v2 in
        if c <> 0 then c < 0 else o1 = `Lt && o2 = `Le
      in
      let pick stronger = function
        | [] -> None
        | x :: rest ->
            Some
              (List.fold_left
                 (fun best c -> if stronger c best then c else best)
                 x rest)
      in
      (match (pick stronger_low lower, pick stronger_high upper) with
      | Some (lop, lv), Some (uop, uv) ->
          let c = Value.compare lv uv in
          if c > 0 || (c = 0 && (lop = `Gt || uop = `Lt)) then
            Some
              (Printf.sprintf "%s %s contradicts %s %s" (op_string lop)
                 (Value.to_string lv) (op_string uop) (Value.to_string uv))
          else None
      | _ -> None)

let check_theta ~emit ~left_schema ~right_schema ~left_types ~right_types
    ~parallelism theta =
  let atoms = Theta.atoms theta in
  let atom_str = atom_string ~left:left_schema ~right:right_schema in
  let side_type types arity side i =
    if i < 0 || i >= Array.length types then (
      emit Error "bad-column"
        (Printf.sprintf
           "%s column #%d is out of range (the %s side has %d column(s))" side
           i side arity);
      None)
    else Some types.(i)
  in
  let larity = Schema.arity left_schema
  and rarity = Schema.arity right_schema in
  (* per-atom checks *)
  List.iter
    (fun atom ->
      match atom with
      | Theta.Cols (_, i, j) -> (
          match
            ( side_type left_types larity "left" i,
              side_type right_types rarity "right" j )
          with
          | Some lt, Some rt ->
              if not (compatible lt rt) then
                emit Error "type-mismatch"
                  (Printf.sprintf
                     "%s compares a %s column with a %s column — the \
                      comparison is rank-ordered, never value-ordered"
                     (atom_str atom) (type_name lt) (type_name rt))
          | _ -> ())
      | Theta.Left_const (_, i, v) | Theta.Right_const (_, i, v) -> (
          let side, types, arity =
            match atom with
            | Theta.Left_const _ -> ("left", left_types, larity)
            | _ -> ("right", right_types, rarity)
          in
          if Value.is_null v then
            emit Error "null-comparison"
              (Printf.sprintf
                 "%s compares against NULL, which never matches under SQL \
                  semantics — the atom is unsatisfiable"
                 (atom_str atom))
          else
            match side_type types arity side i with
            | Some t ->
                let vt = type_of_value v in
                if not (compatible t vt) then
                  emit Error "type-mismatch"
                    (Printf.sprintf
                       "%s compares a %s column with the %s constant %s — no \
                        row can satisfy it as intended"
                       (atom_str atom) (type_name t) (type_name vt)
                       (Value.to_string v))
            | None -> ()))
    atoms;
  (* duplicated atoms: a redundant conjunct, usually a typo for another
     column *)
  let rec dups = function
    | [] -> ()
    | a :: rest ->
        if List.exists (Theta.atom_equal a) rest then
          emit Warning "duplicate-atom"
            (Printf.sprintf "%s appears more than once in \xce\xb8"
               (atom_str a));
        dups (List.filter (fun b -> not (Theta.atom_equal a b)) rest)
  in
  dups atoms;
  (* constant-constraint satisfiability per (side, column) *)
  let constraint_sets = Hashtbl.create 8 in
  List.iter
    (fun atom ->
      match atom with
      | Theta.Left_const (op, i, v) when not (Value.is_null v) ->
          Hashtbl.replace constraint_sets (`L, i)
            ((op, v)
            :: (try Hashtbl.find constraint_sets (`L, i) with Not_found -> []))
      | Theta.Right_const (op, i, v) when not (Value.is_null v) ->
          Hashtbl.replace constraint_sets (`R, i)
            ((op, v)
            :: (try Hashtbl.find constraint_sets (`R, i) with Not_found -> []))
      | Theta.Cols _ | Theta.Left_const _ | Theta.Right_const _ -> ())
    atoms;
  Hashtbl.iter
    (fun (side, i) constraints ->
      match unsat_reason constraints with
      | None -> ()
      | Some reason ->
          let schema =
            match side with `L -> left_schema | `R -> right_schema
          in
          let column =
            match List.nth_opt (Schema.columns schema) i with
            | Some c -> c
            | None -> Printf.sprintf "#%d" i
          in
          emit Error "unsatisfiable"
            (Printf.sprintf
               "the constant constraints on %s column %s admit no value (%s) \
                — \xce\xb8 matches nothing"
               (match side with `L -> "left" | `R -> "right")
               column reason))
    constraint_sets;
  (* shape warnings *)
  if atoms = [] then
    emit Warning "cartesian"
      "\xce\xb8 has no atoms: every overlapping pair matches (a temporal \
       cartesian product; quadratic in the overlap)";
  if parallelism > 1 && Theta.equi_keys theta = None then begin
    (* Suggest the concrete rewrite: an equality atom on a column the two
       sides share by name, or — failing that — on any key pair. *)
    let suggestion =
      let shared =
        List.filter
          (fun c -> List.exists (String.equal c) (Schema.columns right_schema))
          (Schema.columns left_schema)
      in
      match shared with
      | c :: _ ->
          Printf.sprintf
            "add an equality atom on a shared key, e.g. ON %s.%s = %s.%s, to \
             enable hash partitioning"
            (Schema.name left_schema) c (Schema.name right_schema) c
      | [] ->
          "no column is shared by name; add an equality atom on a key pair \
           (or drop --jobs) to avoid the sequential sweep"
    in
    emit Warning "sequential-fallback"
      (match Theta.temporal theta with
      | `Allen rel ->
          Printf.sprintf
            "jobs=%d requested, but \xce\xb8 is a residual-only temporal \
             predicate (%s) with no equality atom to shard on — Allen \
             relations constrain intervals, not fact keys, so the join \
             runs sequentially — %s"
            parallelism
            (Tpdb_interval.Interval.allen_name rel)
            suggestion
      | `Overlap ->
          Printf.sprintf
            "jobs=%d requested, but \xce\xb8 has no equality atom between \
             the two sides to shard on — the join runs sequentially — %s"
            parallelism suggestion)
  end

(* --- the walk --------------------------------------------------------- *)

let node_label : Physical.t -> string = function
  | Physical.Scan r -> Printf.sprintf "Scan %s" (Relation.name r)
  | Physical.Filter _ -> "Filter"
  | Physical.Project _ -> "Project"
  | Physical.Distinct_project _ -> "Distinct Project"
  | Physical.Timeslice _ -> "Timeslice"
  | Physical.Aggregate _ -> "Aggregate"
  | Physical.Sort_limit _ -> "Sort"
  | Physical.Tp_join { kind; _ } -> (
      match kind with
      | Nj.Inner -> "TP Inner Join"
      | Nj.Anti -> "TP Anti Join"
      | Nj.Left -> "TP Left Outer Join"
      | Nj.Right -> "TP Right Outer Join"
      | Nj.Full -> "TP Full Outer Join")
  | Physical.Set_op { kind; _ } -> (
      match kind with
      | `Union -> "TP Union"
      | `Intersect -> "TP Intersect"
      | `Except -> "TP Except")

(* The equi-join key columns of a join, as indices into its own output
   schema (left columns first, right columns shifted by the left
   arity; an anti join outputs the left side only). *)
let join_key_columns = function
  | Physical.Tp_join { kind; theta; left; _ } -> (
      match Theta.equi_keys theta with
      | None -> []
      | Some (lcols, rcols) ->
          let larity = Schema.arity (Physical.schema left) in
          if kind = Nj.Anti then lcols
          else lcols @ List.map (fun j -> larity + j) rcols)
  | _ -> []

(* A plain projection looks through order-preserving unary nodes for the
   join whose output it projects. *)
let rec underlying_join node =
  match node with
  | Physical.Tp_join _ -> Some node
  | Physical.Filter { child; _ }
  | Physical.Timeslice { child; _ }
  | Physical.Sort_limit { child; _ } ->
      underlying_join child
  | Physical.Scan _ | Physical.Project _ | Physical.Distinct_project _
  | Physical.Aggregate _ | Physical.Set_op _ ->
      None

let check plan =
  let diags = ref [] in
  let rec walk rev_path node =
    let path =
      String.concat " > " (List.rev (node_label node :: rev_path))
    in
    let emit severity code message =
      diags := { severity; code; path; message } :: !diags
    in
    let rev_path = node_label node :: rev_path in
    let types =
      match node with
      | Physical.Scan r -> relation_types r
      | Physical.Filter { child; _ }
      | Physical.Timeslice { child; _ }
      | Physical.Sort_limit { child; _ } ->
          walk rev_path child
      | Physical.Project { columns; child; _ }
      | Physical.Distinct_project { columns; child; _ } ->
          let child_types = walk rev_path child in
          let pick i =
            if i >= 0 && i < Array.length child_types then child_types.(i)
            else Unknown
          in
          let projected = Array.of_list (List.map pick columns) in
          (match node with
          | Physical.Project _ -> (
              match underlying_join child with
              | Some (Physical.Tp_join { theta; _ } as join) ->
                  let keys = join_key_columns join in
                  let dropped =
                    List.filter (fun k -> not (List.mem k columns)) keys
                  in
                  if dropped <> [] && Theta.equi_keys theta <> None then
                    emit Warning "drops-join-key"
                      (Printf.sprintf
                         "projection drops join key column(s) %s of the %s \
                          below — coinciding facts may appear; SELECT \
                          DISTINCT disjoins their lineages"
                         (String.concat ", "
                            (List.map (string_of_int) dropped))
                         (node_label join))
              | _ -> ())
          | _ -> ());
          projected
      | Physical.Aggregate { group_by; child; _ } ->
          let child_types = walk rev_path child in
          let pick i =
            if i >= 0 && i < Array.length child_types then child_types.(i)
            else Unknown
          in
          Array.of_list (List.map pick group_by @ [ Number ])
      | Physical.Tp_join { kind; parallelism; theta; left; right; _ } ->
          let left_types = walk rev_path left in
          let right_types = walk rev_path right in
          check_theta ~emit ~left_schema:(Physical.schema left)
            ~right_schema:(Physical.schema right) ~left_types ~right_types
            ~parallelism theta;
          if kind = Nj.Anti then left_types
          else Array.append left_types right_types
      | Physical.Set_op { left; right; _ } ->
          let left_types = walk rev_path left in
          let right_types = walk rev_path right in
          if Array.length left_types <> Array.length right_types then
            emit Error "arity-mismatch"
              (Printf.sprintf
                 "set operation over %d vs %d column(s) — the two inputs \
                  must align positionally"
                 (Array.length left_types)
                 (Array.length right_types));
          left_types
    in
    types
  in
  ignore (walk [] plan);
  List.rev !diags

(* --- stable diagnostic codes ------------------------------------------

   Every code the analyzer (or [diagnostic_of_exn]) can emit, with its
   default severity and a one-line description. The registry is the
   contract behind [check --format json]: codes are stable identifiers
   tools may match on, messages are prose that may change. A unit test
   asserts every emitted code is registered. *)

let codes : (string * severity * string) list =
  [
    ("csv-load", Error, "a CSV relation failed to load");
    ("value-type", Error, "two values turned out not to be comparable");
    ("tpsan-violation", Error, "a TPSan window invariant (paper lemma) broke");
    ("unbound-variable", Error, "a lineage variable has no marginal probability");
    ("vanishing-evidence", Error, "conditioning on (near-)zero-probability evidence");
    ("parse", Error, "TP-SQL parse error");
    ("lex", Error, "TP-SQL lexical error");
    ("pinned-eviction", Error, "the buffer pool needed to evict but every cached page was pinned");
    ("heap-file-corrupt", Error, "a stored heap file or its tuple encoding failed to decode");
    ("bad-column", Error, "\xce\xb8 references a column out of range");
    ("type-mismatch", Error, "\xce\xb8 compares columns of incompatible types");
    ("null-comparison", Error, "\xce\xb8 compares against NULL (never matches)");
    ("unsatisfiable", Error, "constant constraints on one column admit no value");
    ("arity-mismatch", Error, "set operation over inputs of different arity");
    ("duplicate-atom", Warning, "a \xce\xb8 conjunct appears more than once");
    ("cartesian", Warning, "\xce\xb8 has no atoms (temporal cartesian product)");
    ("sequential-fallback", Warning, "parallelism requested but \xce\xb8 has no equality atom to shard on");
    ("drops-join-key", Warning, "a plain projection drops join key columns");
    ("hard-plan", Warning, "a base relation appears on both sides of a join: lineages can repeat variables and probability may fall back to BDD model counting");
    ("zero-probability", Warning, "every output probability is provably 0");
    ("cost-q-error", Warning, "a cost estimate is off by more than the q-error threshold");
    ("stats-missing", Warning, "no statistics available for a scanned relation");
    ("theta-fold", Note, "redundant \xce\xb8 conjuncts folded away");
    ("pruned-empty", Note, "a provably-empty subplan was pruned");
    ("safe-plan", Note, "a join's output lineages are statically read-once");
    ("join-reordered", Note, "the planner reordered an equi-\xce\xb8 inner-join chain by estimated cost");
    ("plan-bounds", Note, "abstract temporal/probability bounds of the plan");
  ]

let to_json diags =
  Json.arr
    (List.map
       (fun d ->
         Json.obj
           [
             ("severity", Json.str (severity_name d.severity));
             ("code", Json.str d.code);
             ("path", Json.str d.path);
             ("message", Json.str d.message);
           ])
       diags)

(* --- deep passes: abstract interpretation ------------------------------

   A bottom-up pass over the plan computing, per node, a sound
   over-approximation of its output: the temporal hull (None = provably
   no output tuples) and a [lo, hi] range containing every output
   probability. Scans read the exact hull and probability extrema off
   the data; operators propagate conservatively (a filter keeps its
   child's bounds — output is a subset — a join intersects or unions
   hulls per kind). *)

type bounds = { hull : Interval.t option; p_lo : float; p_hi : float }

let hull_intersect a b =
  match (a, b) with
  | Some a, Some b -> Interval.intersect a b
  | (Some _ | None), _ -> None

let hull_union a b =
  match (a, b) with
  | Some a, Some b -> Some (Interval.hull a b)
  | (Some _ as h), None | None, (Some _ as h) -> h
  | None, None -> None

let empty_bounds = { hull = None; p_lo = 0.0; p_hi = 0.0 }

let bases_disjoint l r =
  not (List.exists (fun b -> List.exists (String.equal b) r) l)

(* Relation tags of every lineage variable reachable under the node:
   output lineages are built by the connectives from the scans' tuple
   lineages, so the union over the subtree's scans over-approximates
   the variables any output formula can mention. *)
let rec lineage_tags node =
  match (node : Physical.t) with
  | Scan r ->
      List.concat_map
        (fun tp -> List.map Var.rel (Formula.vars (Tuple.lineage tp)))
        (Relation.tuples r)
      |> List.sort_uniq String.compare
  | _ ->
      List.concat_map lineage_tags (Physical.children node)
      |> List.sort_uniq String.compare

let rec plan_bounds node =
  match (node : Physical.t) with
  | Scan r ->
      let p_lo, p_hi =
        List.fold_left
          (fun (lo, hi) tp -> (Float.min lo (Tuple.p tp), Float.max hi (Tuple.p tp)))
          (1.0, 0.0) (Relation.tuples r)
      in
      (match Relation.active_domain r with
      | None -> empty_bounds
      | Some hull -> { hull = Some hull; p_lo; p_hi })
  | Filter { child; _ } | Project { child; _ } | Sort_limit { child; _ } ->
      plan_bounds child
  | Timeslice { window; child } ->
      let c = plan_bounds child in
      let hull = hull_intersect c.hull (Some window) in
      if hull = None then empty_bounds else { c with hull }
  | Distinct_project { child; _ } ->
      (* lineages of coinciding tuples are disjoined: probabilities can
         only grow, up to 1 *)
      let c = plan_bounds child in
      if c.hull = None then empty_bounds else { c with p_hi = 1.0 }
  | Aggregate { child; _ } ->
      let c = plan_bounds child in
      if c.hull = None then empty_bounds
      else { c with p_lo = 0.0; p_hi = 1.0 }
  | Tp_join { kind; theta; left; right; _ } -> (
      let l = plan_bounds left and r = plan_bounds right in
      let disjoint_allen =
        match Theta.temporal theta with
        | `Allen rel -> Interval.allen_disjoint rel
        | `Overlap -> false
      in
      match (kind : Nj.join_kind) with
      | Inner ->
          let hull =
            if disjoint_allen then None else hull_intersect l.hull r.hull
          in
          if hull = None then empty_bounds
          else if bases_disjoint (lineage_tags left) (lineage_tags right)
          then
            (* variable-disjoint sides: the conjoined lineages are
               independent and the probabilities multiply *)
            { hull; p_lo = l.p_lo *. r.p_lo; p_hi = l.p_hi *. r.p_hi }
          else
            (* shared variables (e.g. a self-join): p(φl ∧ φr) need not
               be the product — for v ∧ v it is p(v), above the product;
               for v ∧ ¬v it is 0, below it — so only the Fréchet
               bounds are sound *)
            {
              hull;
              p_lo = Float.max 0.0 (l.p_lo +. r.p_lo -. 1.0);
              p_hi = Float.min l.p_hi r.p_hi;
            }
      | Left ->
          if l.hull = None then empty_bounds
          else { hull = l.hull; p_lo = 0.0; p_hi = l.p_hi }
      | Anti ->
          if l.hull = None then empty_bounds
          else { hull = l.hull; p_lo = 0.0; p_hi = l.p_hi }
      | Right ->
          if r.hull = None then empty_bounds
          else { hull = r.hull; p_lo = 0.0; p_hi = r.p_hi }
      | Full ->
          let hull = hull_union l.hull r.hull in
          if hull = None then empty_bounds
          else { hull; p_lo = 0.0; p_hi = Float.max l.p_hi r.p_hi })
  | Set_op { kind; left; right; _ } -> (
      let l = plan_bounds left and r = plan_bounds right in
      match kind with
      | `Union ->
          let hull = hull_union l.hull r.hull in
          if hull = None then empty_bounds
          else { hull; p_lo = Float.min l.p_lo r.p_lo; p_hi = 1.0 }
      | `Intersect ->
          let hull = hull_intersect l.hull r.hull in
          if hull = None then empty_bounds
          else { hull; p_lo = 0.0; p_hi = Float.min l.p_hi r.p_hi }
      | `Except ->
          if l.hull = None then empty_bounds
          else { hull = l.hull; p_lo = 0.0; p_hi = l.p_hi })

(* --- deep passes: planner rewrites -------------------------------------

   Three plan-to-plan rewrites the planner applies after lowering, each
   justified by a static proof and each reported through a Note-severity
   diagnostic: θ-simplification (drop redundant conjuncts), empty-subplan
   pruning (replace a provably-empty subtree by an empty scan), and
   safe-plan tagging (mark joins whose output lineages are read-once). *)

let empty_scan node =
  let s = Physical.schema node in
  Physical.Scan
    (Relation.of_tuples
       (Schema.rename ("pruned:" ^ Schema.name s) s)
       [])

let simplify_thetas plan =
  let notes = ref [] in
  let rec go rev_path node =
    let rev_path' = node_label node :: rev_path in
    match (node : Physical.t) with
    | Scan _ -> node
    | Filter f -> Filter { f with child = go rev_path' f.child }
    | Project p -> Project { p with child = go rev_path' p.child }
    | Distinct_project p ->
        Distinct_project { p with child = go rev_path' p.child }
    | Timeslice t -> Timeslice { t with child = go rev_path' t.child }
    | Aggregate a -> Aggregate { a with child = go rev_path' a.child }
    | Sort_limit s -> Sort_limit { s with child = go rev_path' s.child }
    | Set_op s ->
        Set_op
          { s with left = go rev_path' s.left; right = go rev_path' s.right }
    | Tp_join j ->
        let left = go rev_path' j.left and right = go rev_path' j.right in
        let theta, dropped = Theta.simplify j.theta in
        if dropped <> [] then begin
          Metrics.add Metrics.Analysis_folded_atoms (List.length dropped);
          let atom_str =
            atom_string
              ~left:(Physical.schema j.left)
              ~right:(Physical.schema j.right)
          in
          notes :=
            {
              severity = Note;
              code = "theta-fold";
              path = String.concat " > " (List.rev rev_path');
              message =
                Printf.sprintf
                  "redundant \xce\xb8 conjunct(s) folded away: %s (duplicate \
                   or implied by a stronger bound)"
                  (String.concat ", " (List.map atom_str dropped));
            }
            :: !notes
        end;
        Tp_join { j with theta; left; right }
  in
  let plan = go [] plan in
  (plan, List.rev !notes)

let prune_empty plan =
  let pruned = ref [] in
  let prune rev_path node reason =
    Metrics.incr Metrics.Analysis_pruned_subplans;
    let note =
      {
        severity = Note;
        code = "pruned-empty";
        path = String.concat " > " (List.rev (node_label node :: rev_path));
        message =
          Printf.sprintf
            "subplan is provably empty (%s) — replaced by an empty scan"
            reason;
      }
    in
    pruned := (node, note) :: !pruned;
    empty_scan node
  in
  let is_empty node =
    match (node : Physical.t) with
    | Scan r -> Relation.cardinality r = 0
    | _ -> (plan_bounds node).hull = None
  in
  let hull_str node =
    match (plan_bounds node).hull with
    | Some h -> Interval.to_string h
    | None -> "empty"
  in
  let rec go rev_path node =
    let rev_path' = node_label node :: rev_path in
    match (node : Physical.t) with
    | Scan _ -> node
    | Filter f -> Filter { f with child = go rev_path' f.child }
    | Project p -> Project { p with child = go rev_path' p.child }
    | Distinct_project p ->
        Distinct_project { p with child = go rev_path' p.child }
    | Aggregate a -> Aggregate { a with child = go rev_path' a.child }
    | Sort_limit s -> Sort_limit { s with child = go rev_path' s.child }
    | Timeslice t ->
        let child = go rev_path' t.child in
        let node' = Physical.Timeslice { t with child } in
        if (not (is_empty t.child)) && is_empty node' then
          prune rev_path node
            (Printf.sprintf
               "the window %s does not intersect the input's temporal hull %s"
               (Interval.to_string t.window) (hull_str t.child))
        else node'
    | Set_op s -> (
        let left = go rev_path' s.left and right = go rev_path' s.right in
        let node' = Physical.Set_op { s with left; right } in
        match s.kind with
        | `Intersect when is_empty s.left || is_empty s.right ->
            prune rev_path node "one side of the intersection is empty"
        | `Intersect when is_empty node' ->
            prune rev_path node
              (Printf.sprintf
                 "the sides' temporal hulls %s and %s are disjoint"
                 (hull_str s.left) (hull_str s.right))
        | `Except when is_empty s.left ->
            prune rev_path node "the left side of the difference is empty"
        | `Union when is_empty s.left && is_empty s.right ->
            prune rev_path node "both sides of the union are empty"
        | `Union | `Intersect | `Except -> node')
    | Tp_join j -> (
        let left = go rev_path' j.left and right = go rev_path' j.right in
        let node' = Physical.Tp_join { j with left; right } in
        let disjoint_allen =
          match Theta.temporal j.theta with
          | `Allen rel -> Interval.allen_disjoint rel
          | `Overlap -> false
        in
        match (j.kind : Nj.join_kind) with
        | Inner when disjoint_allen ->
            prune rev_path node
              (Printf.sprintf
                 "\xce\xb8's temporal component (%s) admits no shared time \
                  point, so no overlapping window exists"
                 (match Theta.temporal j.theta with
                 | `Allen rel -> Interval.allen_name rel
                 | `Overlap -> "overlaps"))
        | Inner when is_empty j.left || is_empty j.right ->
            prune rev_path node "one side of the inner join is empty"
        | Inner when is_empty node' ->
            prune rev_path node
              (Printf.sprintf
                 "the sides' temporal hulls %s and %s are disjoint"
                 (hull_str j.left) (hull_str j.right))
        | (Left | Anti) when is_empty j.left ->
            prune rev_path node "the left (preserved) side is empty"
        | Right when is_empty j.right ->
            prune rev_path node "the right (preserved) side is empty"
        | Full when is_empty j.left && is_empty j.right ->
            prune rev_path node "both sides of the full outer join are empty"
        | Inner | Left | Right | Full | Anti -> node')
  in
  let plan = go [] plan in
  (plan, List.rev !pruned)

(* --- deep passes: static safe-plan classification ----------------------

   When is every output lineage of a TP join read-once? The windows
   conjoin ONE tuple of the preserved side with the (negated) lineages
   of SEVERAL tuples of the other side (WU/WN negate every matching
   partner in the gap). So:

   - the side contributing one lineage per output needs every individual
     lineage read-once ("safe": any composition of safe joins);
   - a side whose tuples are conjoined several-at-a-time needs pairwise
     variable-disjoint tuple lineages ("scanlike": a chain of
     lineage-preserving unaries over a duplicate-free base scan whose
     lineages are distinct bare variables);
   - and the two sides must draw on disjoint base relations (a self-join
     repeats variables across the sides).

   Inner joins build WO only (one tuple each side), so both sides may be
   arbitrary safe subtrees; outer and anti joins constrain the side(s)
   they negate. [false]/[Hard] is always sound — the runtime read-once
   check simply stays on. *)

type shape = Hard | Safe of { bases : string list; scanlike : bool }

let scan_safe ~stats r =
  let s =
    match stats (Relation.name r) with
    | Some s -> s
    | None -> Stats.of_relation r
  in
  s.Stats.duplicate_free && s.Stats.lineage_safe

(* The side-disjointness check must see the {e lineage variables'}
   relation tags, not the scan's name: a CSV loaded with an explicit
   lineage column (or a copied database file) can reuse another
   relation's variables under a fresh relation name, and a variable
   shared across the two sides of a join breaks read-once factorization
   regardless of what the scans are called. *)
let scan_base_tags r =
  (* consecutive tuples mostly share their tag: only a change of tag
     touches the table *)
  let seen = Hashtbl.create 4 and last = ref None in
  Relation.iter
    (fun tp ->
      match Formula.view (Tuple.lineage tp) with
      | Formula.Var v -> (
          let tag = Var.rel v in
          match !last with
          | Some l when String.equal l tag -> ()
          | Some _ | None ->
              last := Some tag;
              Hashtbl.replace seen tag ())
      | Formula.True | Formula.False | Formula.Not _ | Formula.And _
      | Formula.Or _ ->
          ())
    r;
  Hashtbl.fold (fun tag () acc -> tag :: acc) seen []
  |> List.sort String.compare

let rec plan_shape ~stats node =
  match (node : Physical.t) with
  | Scan r ->
      if scan_safe ~stats r then Safe { bases = scan_base_tags r; scanlike = true }
      else Hard
  | Filter { child; _ }
  | Timeslice { child; _ }
  | Project { child; _ }
  | Sort_limit { child; _ } ->
      (* lineage-preserving and tuple-preserving: distinct tuples keep
         distinct lineages *)
      plan_shape ~stats child
  | Tp_join { kind; left; right; _ } -> (
      match (plan_shape ~stats left, plan_shape ~stats right) with
      | Safe l, Safe r ->
          let sides_ok =
            match (kind : Nj.join_kind) with
            | Inner -> true
            | Left | Anti -> r.scanlike
            | Right -> l.scanlike
            | Full -> l.scanlike && r.scanlike
          in
          if sides_ok && bases_disjoint l.bases r.bases then
            Safe { bases = l.bases @ r.bases; scanlike = false }
          else Hard
      | (Hard | Safe _), _ -> Hard)
  | Distinct_project _ | Aggregate _ | Set_op _ ->
      (* lineages are disjoined / rebuilt: not bare-variable shaped *)
      Hard

let read_once_safe ?(stats = fun _ -> None) node =
  match plan_shape ~stats node with Safe _ -> true | Hard -> false

let tag_safe ?(stats = fun _ -> None) plan =
  let tagged = ref 0 in
  let rec go node =
    match (node : Physical.t) with
    | Scan _ -> node
    | Filter f -> Filter { f with child = go f.child }
    | Project p -> Project { p with child = go p.child }
    | Distinct_project p -> Distinct_project { p with child = go p.child }
    | Timeslice t -> Timeslice { t with child = go t.child }
    | Aggregate a -> Aggregate { a with child = go a.child }
    | Sort_limit s -> Sort_limit { s with child = go s.child }
    | Set_op s -> Set_op { s with left = go s.left; right = go s.right }
    | Tp_join j ->
        let safe = j.safe_lineage || read_once_safe ~stats node in
        if safe && not j.safe_lineage then begin
          incr tagged;
          Metrics.incr Metrics.Analysis_safe_joins
        end;
        Tp_join
          { j with safe_lineage = safe; left = go j.left; right = go j.right }
  in
  let plan = go plan in
  (plan, !tagged)

let optimize ?(stats = fun _ -> None) plan =
  let plan, fold_notes = simplify_thetas plan in
  let plan, prunes = prune_empty plan in
  let plan, _ = tag_safe ~stats plan in
  (plan, fold_notes @ List.map snd prunes)

(* --- the deep check ---------------------------------------------------- *)

(* Classification report: one diagnostic per TP join — a Note when its
   output lineages are statically read-once, a Warning when the plan is
   provably hard-shaped (a base relation on both sides). *)
let classification_report ~stats plan =
  let diags = ref [] in
  let rec walk rev_path node =
    let rev_path' = node_label node :: rev_path in
    let path = String.concat " > " (List.rev rev_path') in
    (match (node : Physical.t) with
    | Tp_join { kind = _; left; right; safe_lineage; _ } -> (
        match plan_shape ~stats node with
        | Safe _ ->
            diags :=
              {
                severity = Note;
                code = "safe-plan";
                path;
                message =
                  Printf.sprintf
                    "every output lineage is read-once%s: probabilities \
                     factorize over the connectives with no runtime \
                     read-once check and no BDD fallback"
                    (if safe_lineage then " (tagged)" else "");
              }
              :: !diags
        | Hard -> (
            (* provably hard only when both sides are safe-shaped but
               share a base relation *)
            match (plan_shape ~stats left, plan_shape ~stats right) with
            | Safe l, Safe r when not (bases_disjoint l.bases r.bases) ->
                let shared =
                  List.filter
                    (fun b -> List.exists (String.equal b) r.bases)
                    l.bases
                in
                diags :=
                  {
                    severity = Warning;
                    code = "hard-plan";
                    path;
                    message =
                      Printf.sprintf
                        "base relation(s) %s appear on both sides of the \
                         join — output lineages can repeat their variables \
                         and probability computation may fall back to exact \
                         BDD model counting (#P-hard in general)"
                        (String.concat ", " shared);
                  }
                  :: !diags
            | _ -> ()))
    | Scan _ | Filter _ | Project _ | Distinct_project _ | Timeslice _
    | Aggregate _ | Sort_limit _ | Set_op _ ->
        ());
    List.iter (walk rev_path') (Physical.children node)
  in
  walk [] plan;
  List.rev !diags

let bounds_report plan =
  let b = plan_bounds plan in
  let root =
    {
      severity = Note;
      code = "plan-bounds";
      path = node_label plan;
      message =
        (match b.hull with
        | None ->
            "the plan's output is provably empty (temporal hull \xe2\x8a\xa5)"
        | Some h ->
            Printf.sprintf
              "output lies within temporal hull %s; probabilities within \
               [%.3f, %.3f]"
              (Interval.to_string h) b.p_lo b.p_hi);
    }
  in
  let zero =
    if b.hull <> None && b.p_hi = 0.0 then
      [
        {
          severity = Warning;
          code = "zero-probability";
          path = node_label plan;
          message =
            "every output probability is provably 0 — some input assigns \
             probability 0 to all its tuples";
        };
      ]
    else []
  in
  root :: zero

let check_deep ?(stats = fun _ -> None) plan =
  Metrics.incr Metrics.Analysis_deep_passes;
  Metrics.time Metrics.Analysis_ns @@ fun () ->
  let base = check plan in
  let _, fold_notes = simplify_thetas plan in
  let _, prunes = prune_empty plan in
  base @ fold_notes
  @ List.map snd prunes
  @ classification_report ~stats plan
  @ bounds_report plan
