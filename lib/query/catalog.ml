module Relation = Tpdb_relation.Relation
module Prob = Tpdb_lineage.Prob

(* One registered version of a name. Its statistics are computed on
   first use and shared by every snapshot that copied the entry. *)
type entry = { relation : Relation.t; stats : Stats.t Once.t }

type t = {
  relations : (string, entry) Hashtbl.t;
  mutable stats_dir : string option;
  versions : (string, int) Hashtbl.t;  (* bumped on every register *)
  mutable generation : int;  (* bumped on any register *)
  mutable env : Prob.env Once.t;
      (* this generation's marginals, computed on the first plan and
         shared by every copy until either side registers *)
}

(* The relations are listed now, not when the memo is forced: a copy
   sharing the memo must not see a later [register] on the original. *)
let env_of relations =
  let relations = Hashtbl.fold (fun _ e acc -> e.relation :: acc) relations [] in
  Once.make (fun () -> Relation.prob_env relations)

let create () =
  let relations = Hashtbl.create 16 in
  {
    relations;
    stats_dir = None;
    versions = Hashtbl.create 16;
    generation = 0;
    env = env_of relations;
  }

(* A persisted [<dir>/<name>.stats] whose [relation] field names [name];
   a file describing another relation, or failing to parse, is ignored
   rather than trusted. *)
let persisted ~stats_dir name =
  match stats_dir with
  | None -> None
  | Some dir -> (
      let path = Stats.file ~dir name in
      if not (Sys.file_exists path) then None
      else
        match Stats.load path with
        | Ok s when s.Stats.relation = name -> Some s
        | Ok _ | Error _ -> None)

(* Persisted files serve cost estimation only. The safety-critical flags
   ([duplicate_free], [lineage_safe]) let the safe-plan tag route
   probability computation around the runtime read-once check, so they
   are always recomputed from the registered relation — a file written
   before the data changed must not vouch for it. A file that disagrees
   with the live data on cardinality or hull is discarded as stale
   outright. *)
let entry ~stats_dir relation =
  let resolve () =
    match persisted ~stats_dir (Relation.name relation) with
    | Some s when Stats.describes s relation -> Stats.refresh_safety s relation
    | Some _ | None -> Stats.of_relation relation
  in
  { relation; stats = Once.make resolve }

let register t r =
  let name = Relation.name r in
  Hashtbl.replace t.relations name (entry ~stats_dir:t.stats_dir r);
  t.generation <- t.generation + 1;
  t.env <- env_of t.relations;
  Hashtbl.replace t.versions name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.versions name))

let version t name = Option.value ~default:0 (Hashtbl.find_opt t.versions name)
let generation t = t.generation

(* Relations are immutable values, so a snapshot only needs to copy the
   tables, not the data: O(names), and the copy shares every relation —
   its statistics, and the generation's marginals — with the original
   until either side re-registers a name. *)
let copy t =
  {
    relations = Hashtbl.copy t.relations;
    stats_dir = t.stats_dir;
    versions = Hashtbl.copy t.versions;
    generation = t.generation;
    env = t.env;
  }

let find t name =
  Option.map (fun e -> e.relation) (Hashtbl.find_opt t.relations name)

let find_exn t name =
  match find t name with Some r -> r | None -> raise Not_found

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.relations []
  |> List.sort String.compare

let env t = Once.force t.env

(* Statistics resolved against the old directory are stale: give every
   entry of this catalog a fresh memo (other snapshots keep theirs). *)
let set_stats_dir t dir =
  t.stats_dir <- Some dir;
  Hashtbl.filter_map_inplace
    (fun _ e -> Some (entry ~stats_dir:t.stats_dir e.relation))
    t.relations

(* A name with a persisted file but no registered relation keeps the
   file's cost fields with both safety flags forced off: there is
   nothing to validate them against. *)
let stats t name =
  match Hashtbl.find_opt t.relations name with
  | Some e -> Some (Once.force e.stats)
  | None ->
      Option.map
        (fun s -> { s with Stats.duplicate_free = false; lineage_safe = false })
        (persisted ~stats_dir:t.stats_dir name)
