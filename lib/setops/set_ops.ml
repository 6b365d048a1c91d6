module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Theta = Tpdb_windows.Theta
module Window = Tpdb_windows.Window
module Flat_join = Tpdb_windows.Flat_join
module Nj = Tpdb_joins.Nj

let check_schemas op r s =
  let cols rel = Schema.columns (Relation.schema rel) in
  if
    List.length (cols r) <> List.length (cols s)
    || not (List.for_all2 String.equal (cols r) (cols s))
  then
    invalid_arg
      (Printf.sprintf "Set_ops.%s: operand schemas differ (%s vs %s)" op
         (String.concat "," (cols r))
         (String.concat "," (cols s)))

let fact_equality r =
  let arity = Schema.arity (Relation.schema r) in
  Theta.of_atoms (List.init arity (fun i -> Theta.Cols (`Eq, i, i)))

let env_default env r s =
  match env with Some e -> e | None -> Relation.prob_env [ r; s ]

let result_schema op r s =
  Schema.rename
    (Relation.name r ^ "_" ^ op ^ "_" ^ Relation.name s)
    (Relation.schema r)

let difference ?env r s =
  check_schemas "difference" r s;
  let anti = Nj.anti ?env ~theta:(fact_equality r) r s in
  Relation.of_tuples (result_schema "minus" r s) (Relation.tuples anti)

let intersection ?env r s =
  check_schemas "intersection" r s;
  let env = env_default env r s in
  let tuples = ref [] in
  Flat_join.iter ~stage:`Wo ~theta:(fact_equality r) r s (fun w ->
      match (Window.kind w, Window.ls w) with
      | Window.Overlapping, Some ls ->
          let lineage = Formula.( &&& ) (Window.lr w) ls in
          tuples :=
            Tuple.make ~fact:(Window.fr w) ~lineage ~iv:(Window.iv w)
              ~p:(Prob.compute env lineage)
            :: !tuples
      | (Window.Overlapping | Window.Unmatched | Window.Negating), _ -> ());
  Relation.of_tuples (result_schema "isect" r s) (List.rev !tuples)

(* Union: overlapping windows contribute λr ∨ λs once; unmatched windows of
   either side contribute that side's lineage. Negating windows are not
   part of the union semantics: the r side never builds them, the s
   side's are dropped. *)
let union ?env r s =
  check_schemas "union" r s;
  let env = env_default env r s in
  let theta = fact_equality r in
  let tuple_of ~lineage w =
    Tuple.make ~fact:(Window.fr w) ~lineage ~iv:(Window.iv w)
      ~p:(Prob.compute env lineage)
  in
  let left = ref [] and s_gaps = ref [] and s_spanning = ref [] in
  let add acc w = acc := tuple_of ~lineage:(Window.lr w) w :: !acc in
  Flat_join.iter ~stage:`Wuo ~theta r s (fun w ->
      match (Window.kind w, Window.ls w) with
      | Window.Overlapping, Some ls ->
          left := tuple_of ~lineage:(Formula.( ||| ) (Window.lr w) ls) w :: !left
      | (Window.Unmatched | Window.Overlapping | Window.Negating), _ -> add left w);
  (* The s side, grouped by s tuple: the gaps of the matched ones, then
     the spanning windows of the never-matched ones. *)
  Flat_join.iter_right ~theta r s
    ~gaps:(fun w -> if Window.kind w = Window.Unmatched then add s_gaps w)
    ~spanning:(add s_spanning);
  Relation.of_tuples (result_schema "union" r s)
    (List.rev_append !left (List.rev_append !s_gaps (List.rev !s_spanning)))

module Oracle = struct
  module Interval = Tpdb_interval.Interval
  module Timeline = Tpdb_interval.Timeline

  (* rows_at semantics per operation, glued over maximal runs like
     Tpdb_oracle.Oracle.eval. *)
  let materialize ~env ~schema rows_at domain =
    let module Key = struct
      type t = Fact.t * Formula.t

      let compare (fa, la) (fb, lb) =
        let c = Fact.compare fa fb in
        if c <> 0 then c else Formula.compare la lb
    end in
    let module M = Map.Make (Key) in
    let add acc t =
      List.fold_left
        (fun acc (fact, lineage) ->
          let key = (fact, Formula.normalize lineage) in
          M.add key (t :: Option.value (M.find_opt key acc) ~default:[]) acc)
        acc (rows_at t)
    in
    let by_row =
      match domain with
      | None -> M.empty
      | Some span -> Seq.fold_left add M.empty (Interval.points span)
    in
    let tuples =
      M.fold
        (fun (fact, lineage) points acc ->
          let p = Prob.compute env lineage in
          Timeline.coalesce (List.map (fun t -> Interval.make t (t + 1)) points)
          |> List.fold_left
               (fun acc iv -> Tuple.make ~fact ~lineage ~iv ~p :: acc)
               acc)
        by_row []
    in
    Relation.of_tuples schema tuples

  let snapshot rel t =
    List.filter (fun tp -> Tuple.valid_at tp t) (Relation.tuples rel)

  let domain rels =
    Timeline.span
      (List.concat_map (fun rel -> List.map Tuple.iv (Relation.tuples rel)) rels)

  let lookup fact tuples =
    List.filter_map
      (fun tp ->
        if Fact.equal (Tuple.fact tp) fact then Some (Tuple.lineage tp)
        else None)
      tuples

  let union ?env r s =
    check_schemas "union" r s;
    let env = env_default env r s in
    let rows_at t =
      let rv = snapshot r t and sv = snapshot s t in
      let facts =
        List.sort_uniq Fact.compare (List.map Tuple.fact (rv @ sv))
      in
      List.map
        (fun fact ->
          let lineage = Formula.disj (lookup fact rv @ lookup fact sv) in
          (fact, lineage))
        facts
    in
    materialize ~env ~schema:(result_schema "union" r s) rows_at (domain [ r; s ])

  let intersection ?env r s =
    check_schemas "intersection" r s;
    let env = env_default env r s in
    let rows_at t =
      let rv = snapshot r t and sv = snapshot s t in
      List.filter_map
        (fun tp ->
          let fact = Tuple.fact tp in
          match lookup fact sv with
          | [] -> None
          | ls -> Some (fact, Formula.conj (Tuple.lineage tp :: ls)))
        rv
    in
    materialize ~env ~schema:(result_schema "isect" r s) rows_at (domain [ r; s ])

  let difference ?env r s =
    check_schemas "difference" r s;
    let env = env_default env r s in
    let rows_at t =
      let rv = snapshot r t and sv = snapshot s t in
      List.map
        (fun tp ->
          let fact = Tuple.fact tp in
          match lookup fact sv with
          | [] -> (fact, Tuple.lineage tp)
          | ls -> (fact, Formula.and_not (Tuple.lineage tp) (Formula.disj ls)))
        rv
    in
    materialize ~env ~schema:(result_schema "minus" r s) rows_at (domain [ r ])
end
