type ('k, 'a) t = {
  probe_fn : 'k -> 'a list;
  buckets_fn : unit -> ('k * 'a list) list;
  size_fn : unit -> int;
}

let build (type k) ~key ~(hash : k -> int) ~(equal : k -> k -> bool) items =
  let module H = Hashtbl.Make (struct
    type t = k

    let hash = hash
    let equal = equal
  end) in
  let table : 'a list ref H.t = H.create (max 16 (List.length items)) in
  List.iter
    (fun item ->
      let k = key item in
      match H.find_opt table k with
      | Some bucket -> bucket := item :: !bucket
      | None -> H.add table k (ref [ item ]))
    items;
  H.iter (fun _ bucket -> bucket := List.rev !bucket) table;
  {
    probe_fn =
      (fun k -> match H.find_opt table k with Some b -> !b | None -> []);
    buckets_fn =
      (fun () -> H.fold (fun k b acc -> (k, !b) :: acc) table []);
    size_fn = (fun () -> H.length table);
  }

let probe t k = t.probe_fn k
let buckets t = t.buckets_fn ()
let size t = t.size_fn ()
