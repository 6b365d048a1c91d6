module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Schema = Tpdb_relation.Schema
module Interval = Tpdb_interval.Interval

type op = [ `Eq | `Lt | `Le | `Gt | `Ge | `Ne | `Not_distinct ]

type atom =
  | Cols of op * int * int
  | Left_const of op * int * Value.t
  | Right_const of op * int * Value.t

type temporal = [ `Overlap | `Allen of Interval.allen ]

type t = { temporal : temporal; atoms : atom list }

let always = { temporal = `Overlap; atoms = [] }

let of_atoms atoms = { temporal = `Overlap; atoms }

let eq i j = { temporal = `Overlap; atoms = [ Cols (`Eq, i, j) ] }

let fact_equality arity =
  of_atoms (List.init arity (fun i -> Cols (`Not_distinct, i, i)))

let conj a b =
  let temporal =
    match (a.temporal, b.temporal) with
    | `Overlap, t | t, `Overlap -> t
    | (`Allen ra as t), `Allen rb ->
        if ra = rb then t
        else
          invalid_arg
            (Printf.sprintf
               "Theta.conj: conflicting temporal predicates (%s vs %s)"
               (Interval.allen_name ra) (Interval.allen_name rb))
  in
  { temporal; atoms = a.atoms @ b.atoms }

let atoms t = t.atoms

let temporal t = t.temporal

let with_temporal temporal t = { t with temporal }

let allen rel = { temporal = `Allen rel; atoms = [] }

(* The temporal predicate over the two tuples' full intervals. [`Overlap]
   is the classic condition θo; [`Allen rel] holds iff the pair stands in
   exactly that relation. Windows additionally require a shared time
   point, so a disjoint Allen relation yields only unmatched windows. *)
let temporal_matches t a b =
  match t.temporal with
  | `Overlap -> Interval.overlaps a b
  | `Allen rel -> Interval.allen a b = rel

let apply_op op a b =
  if Value.is_null a || Value.is_null b then
    match op with
    | `Not_distinct -> Value.is_null a && Value.is_null b
    | `Eq | `Ne | `Lt | `Le | `Gt | `Ge -> false
  else
    let c = Value.compare a b in
    match op with
    | `Eq | `Not_distinct -> c = 0
    | `Ne -> c <> 0
    | `Lt -> c < 0
    | `Le -> c <= 0
    | `Gt -> c > 0
    | `Ge -> c >= 0

let matches_atom fr fs = function
  | Cols (op, i, j) -> apply_op op (Fact.get fr i) (Fact.get fs j)
  | Left_const (op, i, v) -> apply_op op (Fact.get fr i) v
  | Right_const (op, j, v) -> apply_op op (Fact.get fs j) v

let matches t fr fs = List.for_all (matches_atom fr fs) t.atoms

let key_atom = function
  | Cols ((`Eq | `Not_distinct), _, _) -> true
  | Cols _ | Left_const _ | Right_const _ -> false

let equi_keys t =
  let keys =
    List.filter_map
      (function
        | Cols ((`Eq | `Not_distinct), i, j) -> Some (i, j) | _ -> None)
      t.atoms
  in
  match keys with
  | [] -> None
  | _ -> Some (List.map fst keys, List.map snd keys)

let null_safe_keys t =
  List.filter_map
    (function
      | Cols (`Not_distinct, _, _) -> Some true
      | Cols (`Eq, _, _) -> Some false
      | _ -> None)
    t.atoms

let op_rank : op -> int = function
  | `Eq -> 0
  | `Ne -> 1
  | `Lt -> 2
  | `Le -> 3
  | `Gt -> 4
  | `Ge -> 5
  | `Not_distinct -> 6

(* Explicit structural equality: atoms embed [Value.t], whose floats and
   strings must go through [Value.compare], not the polymorphic [=]. *)
let atom_equal a b =
  match (a, b) with
  | Cols (o1, i1, j1), Cols (o2, i2, j2) ->
      op_rank o1 = op_rank o2 && i1 = i2 && j1 = j2
  | Left_const (o1, i1, v1), Left_const (o2, i2, v2)
  | Right_const (o1, i1, v1), Right_const (o2, i2, v2) ->
      op_rank o1 = op_rank o2 && i1 = i2 && Value.compare v1 v2 = 0
  | (Cols _ | Left_const _ | Right_const _), _ -> false

(* [implies a b]: every fact pair satisfying atom [a] also satisfies
   atom [b] — the subsumption order used by [simplify]. Only constant
   bounds on the same column are compared; everything else is
   incomparable. *)
let implies a b =
  if atom_equal a b then true
  else
    let bound = function
      | Left_const (op, i, v) -> Some (`L, op, i, v)
      | Right_const (op, i, v) -> Some (`R, op, i, v)
      | Cols _ -> None
    in
    match (bound a, bound b) with
    | Some (sa, oa, ia, va), Some (sb, ob, ib, vb)
      when sa = sb && ia = ib && not (Value.is_null va)
           && not (Value.is_null vb) -> (
        let c = Value.compare va vb in
        match (oa, ob) with
        (* x = v implies any bound v satisfies *)
        | `Eq, _ -> apply_op ob va vb
        (* strict bound implies its non-strict version and any weaker
           bound of the same direction *)
        | `Lt, `Lt | `Le, `Le -> c <= 0
        | `Lt, `Le -> c <= 0
        | `Le, `Lt -> c < 0
        | `Gt, `Gt | `Ge, `Ge -> c >= 0
        | `Gt, `Ge -> c >= 0
        | `Ge, `Gt -> c > 0
        | `Lt, `Ne -> c <= 0
        | `Gt, `Ne -> c >= 0
        | _ -> false)
    | _ -> false

(* Folds away redundant conjuncts: duplicates, and atoms implied by a
   stronger atom on the same column. Returns the simplified θ plus the
   dropped atoms (for the analyzer's [theta-folded] note). Contradictory
   atoms are deliberately left in place — the analyzer reports those as
   [unsatisfiable] errors rather than silently rewriting them. *)
let simplify t =
  let rec keep kept dropped = function
    | [] -> (List.rev kept, List.rev dropped)
    | a :: rest ->
        let subsumed =
          List.exists (fun b -> (not (atom_equal a b)) && implies b a) kept
          || List.exists (fun b -> implies b a) rest
          || List.exists (atom_equal a) kept
        in
        if subsumed then keep kept (a :: dropped) rest
        else keep (a :: kept) dropped rest
  in
  let kept, dropped = keep [] [] t.atoms in
  ({ t with atoms = kept }, dropped)

let residual t =
  {
    t with
    atoms = List.filter (fun a -> not (key_atom a)) t.atoms;
  }

let swap_op : op -> op = function
  | `Eq -> `Eq
  | `Ne -> `Ne
  | `Lt -> `Gt
  | `Le -> `Ge
  | `Gt -> `Lt
  | `Ge -> `Le
  | `Not_distinct -> `Not_distinct

let swap t =
  {
    temporal =
      (match t.temporal with
      | `Overlap -> `Overlap
      | `Allen rel -> `Allen (Interval.allen_inverse rel));
    atoms =
      List.map
        (function
          | Cols (op, i, j) -> Cols (swap_op op, j, i)
          | Left_const (op, i, v) -> Right_const (op, i, v)
          | Right_const (op, j, v) -> Left_const (op, j, v))
        t.atoms;
  }

let op_string : op -> string = function
  | `Eq -> "="
  | `Ne -> "<>"
  | `Lt -> "<"
  | `Le -> "<="
  | `Gt -> ">"
  | `Ge -> ">="
  | `Not_distinct -> "is not distinct from"

let column schema side i =
  match schema with
  | Some s -> (
      match List.nth_opt (Schema.columns s) i with
      | Some c -> Printf.sprintf "%s.%s" (Schema.name s) c
      | None -> Printf.sprintf "%s#%d" side i)
  | None -> Printf.sprintf "%s#%d" side i

let side_name schema fallback =
  match schema with Some s -> Schema.name s | None -> fallback

let to_string ?left ?right t =
  let temporal_part =
    match t.temporal with
    | `Overlap -> []
    | `Allen rel ->
        [
          Printf.sprintf "%s.T %s %s.T" (side_name left "l")
            (Interval.allen_name rel) (side_name right "r");
        ]
  in
  let atom_parts =
    List.map
      (function
        | Cols (op, i, j) ->
            Printf.sprintf "%s %s %s" (column left "l" i) (op_string op)
              (column right "r" j)
        | Left_const (op, i, v) ->
            Printf.sprintf "%s %s %s" (column left "l" i) (op_string op)
              (Value.to_string v)
        | Right_const (op, j, v) ->
            Printf.sprintf "%s %s %s" (column right "r" j) (op_string op)
              (Value.to_string v))
      t.atoms
  in
  match temporal_part @ atom_parts with
  | [] -> "true"
  | parts -> String.concat " and " parts

let pp ppf t = Format.pp_print_string ppf (to_string t)
