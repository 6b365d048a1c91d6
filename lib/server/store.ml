module Relation = Tpdb_relation.Relation
module Csv = Tpdb_relation.Csv
module Catalog = Tpdb_query.Catalog
module Db = Tpdb_storage.Db

type loaded = { name : string; version : int; rows : int }

type t = {
  mutex : Mutex.t;
  catalog : Catalog.t;  (* the master; sessions read O(names) copies *)
  digests : (string, int * string) Hashtbl.t;  (* name → version, digest *)
  db : Db.t option;
}

(* One FNV-1a 64 step per byte of [s]. The accumulator is a local
   mutable that no closure captures, so it stays an unboxed int64. *)
let fnv1a h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  !h

(* FNV-1a 64 over the relation's canonical CSV rendering (values,
   intervals, probabilities and the ASCII lineage formulas — so a
   change of hash-cons lineage structure changes the digest even at
   equal cardinality). Computed once per registration; the rendering is
   deterministic and domain-independent, unlike [Formula.id]. *)
let digest_of relation =
  let h = fnv1a 0xcbf29ce484222325L (Relation.name relation) in
  let h = fnv1a h "\x00" in
  Printf.sprintf "%016Lx" (fnv1a h (Csv.to_string relation))

let register_locked t relation =
  Catalog.register t.catalog relation;
  let name = Relation.name relation in
  let version = Catalog.version t.catalog name in
  Hashtbl.replace t.digests name (version, digest_of relation);
  Option.iter (fun db -> Db.save db relation) t.db;
  { name; version; rows = Relation.cardinality relation }

let create ?db ?stats_dir () =
  let t =
    { mutex = Mutex.create (); catalog = Catalog.create ();
      digests = Hashtbl.create 16; db }
  in
  Option.iter (Catalog.set_stats_dir t.catalog) stats_dir;
  (* Preload every persisted relation. Single-threaded at this point
     (start-up), but register_locked would re-save each relation; go
     through the catalog directly and digest separately. *)
  Option.iter
    (fun db ->
      List.iter
        (fun name ->
          let r = Db.load db name in
          Catalog.register t.catalog r;
          Hashtbl.replace t.digests name
            (Catalog.version t.catalog name, digest_of r))
        (Db.list db))
    db;
  t

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let register t relation = locked t (fun () -> register_locked t relation)

let load_csv t ~name ~csv =
  register t (Csv.of_string ~name ~path:(Printf.sprintf "<load %s>" name) csv)

let snapshot t = locked t (fun () -> Catalog.copy t.catalog)
let generation t = locked t (fun () -> Catalog.generation t.catalog)
let names t = locked t (fun () -> Catalog.names t.catalog)

let digests_locked t names =
  let rec collect acc = function
    | [] -> Some (List.rev acc)
    | name :: rest -> (
        match Hashtbl.find_opt t.digests name with
        | Some (version, digest) -> collect ((name, version, digest) :: acc) rest
        | None -> None)
  in
  collect [] names

let digests t names = locked t (fun () -> digests_locked t names)

(* Snapshot and digests must describe the same instant: a LOAD slipping
   between the two reads would pair a plan validated against the old
   versions with a cache key built from the new ones. *)
let view t names =
  locked t (fun () -> (Catalog.copy t.catalog, digests_locked t names))
