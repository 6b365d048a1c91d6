module Interval = Tpdb_interval.Interval
module Timeline = Tpdb_interval.Timeline
module Formula = Tpdb_lineage.Formula
module Bdd = Tpdb_lineage.Bdd
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Csv = Tpdb_relation.Csv
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Metrics = Tpdb_obs.Metrics
module Trace = Tpdb_obs.Trace

let prob_tolerance = 1e-12

(* --- ground truth: §I snapshot semantics, evaluated point by point ---

   Everything below is written from the paper's definitions, not from
   the sweep: validity is interval membership, matching is θ over the
   snapshot, lineages are the three Table I concatenations, and maximal
   intervals are re-derived by gluing runs of identical rows. *)

let valid_at rel t =
  List.filter (fun tp -> Tuple.valid_at tp t) (Relation.tuples rel)

(* A pair matches at a snapshot iff the facts satisfy θ's atoms and the
   full tuple intervals stand in θ's temporal relation ([`Overlap] always
   holds here: both tuples are valid at the snapshot's time point). *)
let matches theta r_tuple s_tuples =
  List.filter
    (fun s_tuple ->
      Theta.temporal_matches theta (Tuple.iv r_tuple) (Tuple.iv s_tuple)
      && Theta.matches theta (Tuple.fact r_tuple) (Tuple.fact s_tuple))
    s_tuples

(* λ ∧ ¬(∨ λ_matches); plain λ when nothing matches (Table I). *)
let negation lineage = function
  | [] -> lineage
  | ms -> Formula.and_not lineage (Formula.disj (List.map Tuple.lineage ms))

(* The output rows of one snapshot: (fact, lineage) pairs. *)
let snapshot_rows ~kind ~theta r s t =
  let r_valid = valid_at r t and s_valid = valid_at s t in
  let pad_r = Schema.arity (Relation.schema r)
  and pad_s = Schema.arity (Relation.schema s) in
  let pair r_tuple s_tuple =
    ( Fact.concat (Tuple.fact r_tuple) (Tuple.fact s_tuple),
      Formula.( &&& ) (Tuple.lineage r_tuple) (Tuple.lineage s_tuple) )
  in
  let inner_rows () =
    List.concat_map
      (fun rt -> List.map (pair rt) (matches theta rt s_valid))
      r_valid
  in
  (* One null-padded row per valid left tuple, always: λr when nothing
     matches, λr ∧ ¬(∨ λs) when something does. *)
  let left_null_rows () =
    List.map
      (fun rt ->
        ( Fact.concat (Tuple.fact rt) (Fact.nulls pad_s),
          negation (Tuple.lineage rt) (matches theta rt s_valid) ))
      r_valid
  in
  let right_null_rows () =
    let swapped = Theta.swap theta in
    List.map
      (fun st ->
        ( Fact.concat (Fact.nulls pad_r) (Tuple.fact st),
          negation (Tuple.lineage st) (matches swapped st r_valid) ))
      s_valid
  in
  let anti_rows () =
    List.map
      (fun rt ->
        (Tuple.fact rt, negation (Tuple.lineage rt) (matches theta rt s_valid)))
      r_valid
  in
  match kind with
  | Nj.Inner -> inner_rows ()
  | Nj.Anti -> anti_rows ()
  | Nj.Left -> inner_rows () @ left_null_rows ()
  | Nj.Right -> inner_rows () @ right_null_rows ()
  | Nj.Full -> inner_rows () @ left_null_rows () @ right_null_rows ()

(* Each distinct [key] of [tuples] once, with the disjunction of the
   lineages of its tuples: the union's rows, and the projection's. Keys
   are compared with [Fact.equal], under which two nulls are equal. *)
let disjoined key tuples =
  List.sort_uniq Fact.compare (List.map key tuples)
  |> List.map (fun k ->
         ( k,
           Formula.disj
             (List.filter_map
                (fun tp ->
                  if Fact.equal (key tp) k then Some (Tuple.lineage tp) else None)
                tuples) ))

let set_rows ~kind r s t =
  let r_valid = valid_at r t and s_valid = valid_at s t in
  let in_s rt =
    List.filter (fun st -> Fact.equal (Tuple.fact st) (Tuple.fact rt)) s_valid
  in
  match kind with
  | `Union -> disjoined Tuple.fact (r_valid @ s_valid)
  | `Intersect ->
      List.filter_map
        (fun rt ->
          match in_s rt with
          | [] -> None
          | ms -> Some (Tuple.fact rt, Formula.conj (List.map Tuple.lineage (rt :: ms))))
        r_valid
  | `Except ->
      List.map (fun rt -> (Tuple.fact rt, negation (Tuple.lineage rt) (in_s rt))) r_valid

(* Same schema conventions as Nj.join. *)
let output_schema ~kind r s =
  match kind with
  | Nj.Anti ->
      Schema.rename
        (Relation.name r ^ "_anti_" ^ Relation.name s)
        (Relation.schema r)
  | Nj.Inner | Nj.Left | Nj.Right | Nj.Full ->
      Schema.join (Relation.schema r) (Relation.schema s)

module Row_key = struct
  type t = Fact.t * Formula.t

  let compare (fa, la) (fb, lb) =
    let c = Fact.compare fa fb in
    if c <> 0 then c else Formula.compare la lb
end

module Row_map = Map.Make (Row_key)

let env_default env rels =
  match env with Some e -> e | None -> Relation.prob_env rels

(* The one point-wise materializer: [rows_at t] is the snapshot at [t],
   evaluated at every point of the active timeline of [over]. *)
let materialize ~env ~name ~schema ~over rows_at =
  Metrics.incr Metrics.Oracle_evals;
  let run () =
    Metrics.time Metrics.Oracle_eval_ns @@ fun () ->
    let domain =
      Timeline.span
        (List.concat_map (fun rel -> List.map Tuple.iv (Relation.tuples rel)) over)
    in
    let points =
      match domain with
      | None -> Seq.empty
      | Some span -> Interval.points span
    in
    (* Rows keyed by (fact, normalized lineage), each holding the time
       points at which the snapshot semantics emits the row. *)
    let by_row =
      Seq.fold_left
        (fun acc t ->
          List.fold_left
            (fun acc (fact, lineage) ->
              let key = (fact, Formula.normalize lineage) in
              let sofar = Option.value (Row_map.find_opt key acc) ~default:[] in
              Row_map.add key (t :: sofar) acc)
            acc (rows_at t))
        Row_map.empty points
    in
    let tuples =
      Row_map.fold
        (fun (fact, lineage) points acc ->
          (* Glue maximal runs of time points back into intervals; the
             probability is the exact weighted model count — no
             read-once shortcut, no cache. *)
          let intervals =
            Timeline.coalesce (List.map (fun t -> Interval.make t (t + 1)) points)
          in
          let p = Prob.exact env lineage in
          List.fold_left
            (fun acc iv -> Tuple.make ~fact ~lineage ~iv ~p :: acc)
            acc intervals)
        by_row []
    in
    Relation.of_tuples schema (List.rev tuples)
  in
  if Trace.enabled () then Trace.with_span ~cat:"oracle" ("oracle-" ^ name) run
  else run ()

let eval ?env ~kind ~theta r s =
  materialize ~env:(env_default env [ r; s ]) ~name:(Nj.kind_name kind)
    ~schema:(output_schema ~kind r s) ~over:[ r; s ]
    (snapshot_rows ~kind ~theta r s)

let set_op ?env ~kind r s =
  materialize ~env:(env_default env [ r; s ]) ~name:(Nj.set_kind_name kind)
    ~schema:(Nj.set_op_schema kind (Relation.schema r) (Relation.schema s))
    ~over:[ r; s ] (set_rows ~kind r s)

let project ?env ~columns r =
  let names = Schema.columns (Relation.schema r) in
  let schema =
    Schema.make ~name:(Relation.name r) (List.map (List.nth names) columns)
  in
  materialize ~env:(env_default env [ r ]) ~name:"project" ~schema ~over:[ r ]
    (fun t ->
      disjoined (fun tp -> Fact.project columns (Tuple.fact tp)) (valid_at r t))

(* --- configurations -------------------------------------------------- *)

type config = {
  jobs : int;
  prob_cache : bool;
  sanitize : bool;
  mem_budget : int;
  static_safe : bool;
}

let config ?(jobs = 1) ?(prob_cache = true) ?(sanitize = false)
    ?(mem_budget = 0) ?(static_safe = false) () =
  { jobs; prob_cache; sanitize; mem_budget; static_safe }

let config_name c =
  let parts =
    (if c.jobs <> 1 then [ "jobs" ^ string_of_int c.jobs ] else [])
    @ (if not c.prob_cache then [ "nocache" ] else [])
    @ (if c.sanitize then [ "sanitize" ] else [])
    @ (if c.mem_budget > 0 then [ "spill" ] else [])
    @ if c.static_safe then [ "safe" ] else []
  in
  match parts with [] -> "default" | _ -> String.concat "+" parts

let options_of c =
  Nj.options ~parallelism:c.jobs ~sanitize:c.sanitize
    ~prob_cache:c.prob_cache ~mem_budget:c.mem_budget
    ~static_safe:c.static_safe ()

let default_configs =
  List.concat_map
    (fun jobs -> [ config ~jobs (); config ~jobs ~prob_cache:false () ])
    [ 1; 2; 4 ]
  @ [
      config ~sanitize:true ();
      config ~jobs:2 ~sanitize:true ();
      (* a 1-byte budget forces the out-of-core spill path on any
         non-empty equi-[theta] input: every scenario doubles as a
         spilled-vs-in-RAM differential *)
      config ~mem_budget:1 ();
      config ~mem_budget:1 ~sanitize:true ();
      (* the statically safe path, where the sweep computes the
         probabilities: run only on inputs the classifier would tag
         (see [static_safe_inputs]) *)
      config ~static_safe:true ();
      config ~static_safe:true ~jobs:2 ();
      config ~static_safe:true ~mem_budget:1 ();
    ]

(* The safe-plan classifier's precondition for a join of two scans:
   duplicate-free inputs whose lineages are distinct bare variables, with
   no relation tag on both sides. *)
let static_safe_inputs r s =
  let seen = Hashtbl.create 64 in
  let scan rel =
    List.for_all
      (fun tp ->
        match Formula.view (Tuple.lineage tp) with
        | Formula.Var v when not (Hashtbl.mem seen v) ->
            Hashtbl.add seen v ();
            true
        | _ -> false)
      (Relation.tuples rel)
  in
  let tags rel =
    List.sort_uniq String.compare
      (List.filter_map
         (fun tp ->
           match Formula.view (Tuple.lineage tp) with
           | Formula.Var v -> Some (Tpdb_lineage.Var.rel v)
           | _ -> None)
         (Relation.tuples rel))
  in
  Relation.is_duplicate_free r && Relation.is_duplicate_free s && scan r
  && scan s
  && not (List.exists (fun t -> List.mem t (tags s)) (tags r))

(* --- diffing ---------------------------------------------------------- *)

type mismatch =
  | Missing of Tuple.t
  | Unexpected of Tuple.t
  | Lineage of { expected : Tuple.t; actual : Tuple.t }
  | Probability of { expected : Tuple.t; actual : Tuple.t; delta : float }
  | Schema of { expected : string list; actual : string list }

type operation = Join of Nj.join_kind | Set_op of Nj.set_kind

let operation_name = function
  | Join kind -> Nj.kind_name kind ^ " join"
  | Set_op kind -> Nj.set_kind_name kind

type divergence = {
  op : operation;
  config : config;
  mismatches : mismatch list;
}

(* (fact, interval) as a hashable key: facts print unambiguously and the
   interval pins the temporal extent, so two tuples share a key iff they
   agree on everything but lineage and probability. *)
let tuple_key tp =
  Printf.sprintf "%s@%s"
    (Fact.to_string (Tuple.fact tp))
    (Interval.to_string (Tuple.iv tp))

let diff ~expected ~actual =
  let schema_mismatches =
    let ec = Schema.columns (Relation.schema expected)
    and ac = Schema.columns (Relation.schema actual) in
    if ec <> ac then [ Schema { expected = ec; actual = ac } ] else []
  in
  let pending : (string, Tuple.t list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun tp ->
      let k = tuple_key tp in
      Hashtbl.replace pending k
        (tp :: Option.value (Hashtbl.find_opt pending k) ~default:[]))
    (Relation.tuples expected);
  let mismatches = ref [] in
  let emit m = mismatches := m :: !mismatches in
  List.iter
    (fun a ->
      let k = tuple_key a in
      match Option.value (Hashtbl.find_opt pending k) ~default:[] with
      | [] -> emit (Unexpected a)
      | candidates -> (
          (* Prefer a ground-truth tuple with an equivalent lineage; a
             leftover candidate then means a lineage divergence. *)
          let equivalent e =
            Bdd.equivalent (Tuple.lineage e) (Tuple.lineage a)
          in
          let rec take seen = function
            | [] -> None
            | e :: rest when equivalent e -> Some (e, List.rev_append seen rest)
            | e :: rest -> take (e :: seen) rest
          in
          match take [] candidates with
          | Some (e, rest) ->
              Hashtbl.replace pending k rest;
              let delta = Float.abs (Tuple.p e -. Tuple.p a) in
              if delta > prob_tolerance then
                emit (Probability { expected = e; actual = a; delta })
          | None ->
              let e, rest = (List.hd candidates, List.tl candidates) in
              Hashtbl.replace pending k rest;
              emit (Lineage { expected = e; actual = a })))
    (Relation.tuples actual);
  Hashtbl.iter
    (fun _ leftovers -> List.iter (fun e -> emit (Missing e)) leftovers)
    pending;
  schema_mismatches @ List.rev !mismatches

let check ?(configs = default_configs) ?(kinds = Nj.all_kinds)
    ?(set_kinds = []) ?env ~theta r s =
  let env = env_default env [ r; s ] in
  (* the set operations never take the statically safe path *)
  let dynamic = List.filter (fun c -> not c.static_safe) configs in
  let join_configs = if static_safe_inputs r s then configs else dynamic in
  let against op configs ~expected run =
    List.filter_map
      (fun config ->
        let actual = run (options_of config) in
        Metrics.incr Metrics.Oracle_comparisons;
        match diff ~expected ~actual with
        | [] -> None
        | mismatches ->
            Metrics.add Metrics.Oracle_mismatches (List.length mismatches);
            Some { op; config; mismatches })
      configs
  in
  List.concat_map
    (fun kind ->
      against (Join kind) join_configs
        ~expected:(eval ~env ~kind ~theta r s)
        (fun options -> Nj.join ~options ~env ~kind ~theta r s))
    kinds
  @ List.concat_map
      (fun kind ->
        against (Set_op kind) dynamic
          ~expected:(set_op ~env ~kind r s)
          (fun options -> Nj.set_op ~options ~env ~kind r s))
      set_kinds

(* --- reporting -------------------------------------------------------- *)

let mismatch_to_string = function
  | Missing tp ->
      "missing (required by the snapshot semantics): " ^ Tuple.to_string tp
  | Unexpected tp ->
      "unexpected (not in the snapshot semantics): " ^ Tuple.to_string tp
  | Lineage { expected; actual } ->
      Printf.sprintf "lineage not equivalent at %s %s: expected %s, got %s"
        (Fact.to_string (Tuple.fact expected))
        (Interval.to_string (Tuple.iv expected))
        (Formula.to_string_ascii (Tuple.lineage expected))
        (Formula.to_string_ascii (Tuple.lineage actual))
  | Probability { expected; actual; delta } ->
      Printf.sprintf
        "probability off by %.3g at %s %s: expected %.17g, got %.17g" delta
        (Fact.to_string (Tuple.fact expected))
        (Interval.to_string (Tuple.iv expected))
        (Tuple.p expected) (Tuple.p actual)
  | Schema { expected; actual } ->
      Printf.sprintf "schema mismatch: expected [%s], got [%s]"
        (String.concat "; " expected)
        (String.concat "; " actual)

let report ~theta d =
  String.concat "\n"
    (Printf.sprintf "divergence: %s, config %s, theta %s (%d mismatches)"
       (operation_name d.op) (config_name d.config) (Theta.to_string theta)
       (List.length d.mismatches)
    :: List.map (fun m -> "  " ^ mismatch_to_string m) d.mismatches)

let repro ~theta r s =
  String.concat "\n"
    [
      "theta: " ^ Theta.to_string theta;
      "--- r.csv";
      Csv.to_string r ^ "--- s.csv";
      Csv.to_string s ^ "---";
    ]
