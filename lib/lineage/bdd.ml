type t = Leaf of bool | Node of { id : int; level : int; lo : t; hi : t }

type manager = {
  unique : (int * int * int, t) Hashtbl.t;  (* (level, lo id, hi id) -> node *)
  and_cache : (int * int, t) Hashtbl.t;
  or_cache : (int * int, t) Hashtbl.t;
  neg_cache : (int, t) Hashtbl.t;
  levels : (Var.t, int) Hashtbl.t;  (* variable -> level, 0 = topmost *)
  mutable level_vars : Var.t list;  (* reverse order of declaration *)
  mutable next_id : int;
}

let node_id = function Leaf false -> 0 | Leaf true -> 1 | Node n -> n.id

let level_of_var m v =
  match Hashtbl.find_opt m.levels v with
  | Some l -> l
  | None ->
      let l = Hashtbl.length m.levels in
      Hashtbl.add m.levels v l;
      m.level_vars <- v :: m.level_vars;
      l

(* Tables start at four slots per declared variable, capped at 1024
   (256 for negations), and grow as nodes come. A derived lineage has a
   handful of variables, so its tables stay in the minor heap; three
   1024-slot tables would cost ~3000 words straight into the major heap
   per formula. Capacity never changes a node id or the diagram's
   structure, so the probabilities are the same whatever the sizes. *)
let manager ?(order = []) () =
  let vars = List.length order in
  let slots = min 1024 (4 * vars) in
  let m =
    {
      unique = Hashtbl.create slots;
      and_cache = Hashtbl.create slots;
      or_cache = Hashtbl.create slots;
      neg_cache = Hashtbl.create (min 256 slots);
      levels = Hashtbl.create vars;
      level_vars = [];
      next_id = 2;
    }
  in
  List.iter (fun v -> ignore (level_of_var m v)) order;
  m

let zero _ = Leaf false
let one _ = Leaf true

let mk m level lo hi =
  if node_id lo = node_id hi then lo
  else
    let key = (level, node_id lo, node_id hi) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
        let n = Node { id = m.next_id; level; lo; hi } in
        m.next_id <- m.next_id + 1;
        Hashtbl.add m.unique key n;
        n

let var m v =
  let level = level_of_var m v in
  mk m level (Leaf false) (Leaf true)

let rec neg m f =
  match f with
  | Leaf b -> Leaf (not b)
  | Node n -> (
      match Hashtbl.find_opt m.neg_cache n.id with
      | Some r -> r
      | None ->
          let r = mk m n.level (neg m n.lo) (neg m n.hi) in
          Hashtbl.add m.neg_cache n.id r;
          r)

(* Shannon-expansion apply for a binary monotone-on-leaves op. *)
let rec apply m cache leaf_op a b =
  match (a, b) with
  | Leaf x, Leaf y -> Leaf (leaf_op x y)
  | _ -> (
      let key = (node_id a, node_id b) in
      match Hashtbl.find_opt cache key with
      | Some r -> r
      | None ->
          let r =
            match (a, b) with
            | Leaf _, Leaf _ -> assert false
            | Node na, Node nb when na.level = nb.level ->
                mk m na.level
                  (apply m cache leaf_op na.lo nb.lo)
                  (apply m cache leaf_op na.hi nb.hi)
            | Node na, Node nb when na.level < nb.level ->
                mk m na.level
                  (apply m cache leaf_op na.lo b)
                  (apply m cache leaf_op na.hi b)
            | Node na, Leaf _ ->
                mk m na.level
                  (apply m cache leaf_op na.lo b)
                  (apply m cache leaf_op na.hi b)
            | _, Node nb ->
                mk m nb.level
                  (apply m cache leaf_op a nb.lo)
                  (apply m cache leaf_op a nb.hi)
          in
          Hashtbl.add cache key r;
          r)

let conj m a b =
  match (a, b) with
  | Leaf false, _ | _, Leaf false -> Leaf false
  | Leaf true, f | f, Leaf true -> f
  | _ -> apply m m.and_cache ( && ) a b

let disj m a b =
  match (a, b) with
  | Leaf true, _ | _, Leaf true -> Leaf true
  | Leaf false, f | f, Leaf false -> f
  | _ -> apply m m.or_cache ( || ) a b

let rec of_formula m (f : Formula.t) =
  match Formula.view f with
  | Formula.True -> Leaf true
  | Formula.False -> Leaf false
  | Formula.Var v -> var m v
  | Formula.Not g -> neg m (of_formula m g)
  | Formula.And gs ->
      List.fold_left (fun acc g -> conj m acc (of_formula m g)) (Leaf true) gs
  | Formula.Or gs ->
      List.fold_left (fun acc g -> disj m acc (of_formula m g)) (Leaf false) gs

let equal a b = node_id a = node_id b

let is_tautology f = match f with Leaf true -> true | _ -> false
let is_contradiction f = match f with Leaf false -> true | _ -> false

let equivalent f g =
  (* A shared variable order makes equivalence a physical-equality check. *)
  let order = List.sort_uniq Var.compare (Formula.vars f @ Formula.vars g) in
  let m = manager ~order () in
  equal (of_formula m f) (of_formula m g)

let probability m env root =
  (* Gathered from one-element arrays: [Array.of_list] makes the array
     from its first variable, and over more than 256 variables a young
     one forces a minor collection (DESIGN.md §7). *)
  let order = Array.concat (List.rev_map (fun v -> [| v |]) m.level_vars) in
  (* at most one entry per node the manager has built *)
  let memo = Hashtbl.create (min 256 (m.next_id - 2)) in
  let rec go f =
    match f with
    | Leaf true -> 1.0
    | Leaf false -> 0.0
    | Node n -> (
        match Hashtbl.find_opt memo n.id with
        | Some p -> p
        | None ->
            let pv = env order.(n.level) in
            let p = ((1.0 -. pv) *. go n.lo) +. (pv *. go n.hi) in
            Hashtbl.add memo n.id p;
            p)
  in
  go root

let node_count root =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | Leaf _ -> ()
    | Node n ->
        if not (Hashtbl.mem seen n.id) then begin
          Hashtbl.add seen n.id ();
          go n.lo;
          go n.hi
        end
  in
  go root;
  Hashtbl.length seen

let sat_count m root =
  let total_vars = Hashtbl.length m.levels in
  let memo = Hashtbl.create 256 in
  (* counts models over variables at levels >= [level] *)
  let rec go level f =
    match f with
    | Leaf true -> Float.pow 2.0 (float_of_int (total_vars - level))
    | Leaf false -> 0.0
    | Node n -> (
        let skipped = Float.pow 2.0 (float_of_int (n.level - level)) in
        let below =
          match Hashtbl.find_opt memo n.id with
          | Some c -> c
          | None ->
              let c = go (n.level + 1) n.lo +. go (n.level + 1) n.hi in
              Hashtbl.add memo n.id c;
              c
        in
        skipped *. below)
  in
  go 0 root
