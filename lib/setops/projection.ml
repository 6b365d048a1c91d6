module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Sweep = Tpdb_engine.Sweep

let projected_schema ~columns r =
  let source = Relation.schema r in
  let names = Schema.columns source in
  let pick i =
    match List.nth_opt names i with
    | Some name -> name
    | None ->
        invalid_arg
          (Printf.sprintf "Projection.project: column %d out of range" i)
  in
  try Schema.make ~name:(Schema.name source) (List.map pick columns)
  with Invalid_argument _ ->
    invalid_arg "Projection.project: duplicate column selected"

let env_default env r =
  match env with Some e -> e | None -> Relation.prob_env [ r ]

let project ?env ~columns r =
  let env = env_default env r in
  let schema = projected_schema ~columns r in
  (* Group by projected fact; within a group, sweep the maximal
     constant-witness segments and disjoin the witnesses' lineages. *)
  let partition =
    Tpdb_engine.Hash_partition.build
      ~key:(fun tp -> Fact.project columns (Tuple.fact tp))
      ~hash:Fact.hash ~equal:Fact.equal (Relation.tuples r)
  in
  let tuples =
    List.concat_map
      (fun (fact, members) ->
        let sorted =
          List.sort
            (fun a b -> Interval.compare (Tuple.iv a) (Tuple.iv b))
            members
        in
        Sweep.constant_segments
          (Sweep.Source.of_list
             (List.map (fun tp -> (Tuple.iv tp, Tuple.lineage tp)) sorted))
        |> List.map (fun (iv, lineages) ->
               let lineage = Formula.disj lineages in
               Tuple.make ~fact ~lineage ~iv ~p:(Prob.compute env lineage)))
      (Tpdb_engine.Hash_partition.buckets partition)
  in
  Relation.of_tuples schema tuples

let project_names ?env ~columns r =
  let schema = Relation.schema r in
  project ?env
    ~columns:(List.map (Schema.column_index_exn schema) columns)
    r
