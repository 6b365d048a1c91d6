(* Hash-consed lineage formulas.

   Every formula is interned in a unique table keyed by the ids of its
   children, so structurally equal formulas built on the same domain are
   physically shared: equality of shared nodes is a pointer comparison,
   [hash] reads a precomputed field, and [vars]/[size] memoize per node.
   The sweeping window operators rebuild each window's lineage out of
   largely the same sub-formulas as its neighbor's, so the sharing (and
   the probability cache keyed on node ids, see {!Prob.Cache}) is what
   turns the per-window lineage work from O(window size) into O(delta).

   Concurrency: the unique table is domain-local ([Domain.DLS]) so the
   partitioned parallel executor interns without taking locks. Node ids
   are drawn from one global atomic counter, so an id names at most one
   formula process-wide — two domains may intern the same structure as
   two nodes (sharing is best effort across domains, guaranteed within
   one), which is why [equal]/[compare] fall back to structural
   recursion and [hkey] is computed from the structure, not the id. *)

type t = {
  id : int;  (** unique process-wide; never reused *)
  hkey : int;  (** structural hash: equal structures hash equal on any domain *)
  node : view;
  mutable memo_size : int;  (** -1 until first [size] *)
  mutable memo_vars : Var.t list option;  (** [None] until first [vars] *)
}

and view =
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list
  | Or of t list

let view f = f.node
let id f = f.id
let hash f = f.hkey

let combine seed h = ((seed * 31) + h) land max_int

let hash_view = function
  | True -> 0x21a3d
  | False -> 0x47b91
  | Var v -> combine 0x11 (Var.hash v)
  | Not f -> combine 0x7f f.hkey
  | And fs -> List.fold_left (fun h f -> combine h f.hkey) 0x3b5 fs
  | Or fs -> List.fold_left (fun h f -> combine h f.hkey) 0x9c7 fs

(* Ids 0 and 1 belong to the constant singletons, which are shared by
   every domain (the constructors below never re-intern them). *)
let true_ =
  { id = 0; hkey = hash_view True; node = True; memo_size = 1; memo_vars = Some [] }

let false_ =
  { id = 1; hkey = hash_view False; node = False; memo_size = 1; memo_vars = Some [] }

let next_id = Atomic.make 2

module Key = struct
  type t = KVar of Var.t | KNot of int | KAnd of int list | KOr of int list

  let equal a b =
    match (a, b) with
    | KVar u, KVar v -> Var.equal u v
    | KNot i, KNot j -> Int.equal i j
    | KAnd xs, KAnd ys | KOr xs, KOr ys -> List.equal Int.equal xs ys
    | (KVar _ | KNot _ | KAnd _ | KOr _), _ -> false

  let hash = function
    | KVar v -> combine 0x11 (Var.hash v)
    | KNot i -> combine 0x7f i
    | KAnd is -> List.fold_left combine 0x3b5 is
    | KOr is -> List.fold_left combine 0x9c7 is
end

module Tbl = Hashtbl.Make (Key)

let table : t Tbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Tbl.create 1024)

let key_of = function
  | True | False -> assert false (* constants are never interned *)
  | Var v -> Key.KVar v
  | Not f -> Key.KNot f.id
  | And fs -> Key.KAnd (List.map (fun f -> f.id) fs)
  | Or fs -> Key.KOr (List.map (fun f -> f.id) fs)

let mk node =
  let tbl = Domain.DLS.get table in
  let key = key_of node in
  match Tbl.find_opt tbl key with
  | Some f -> f
  | None ->
      let f =
        {
          id = Atomic.fetch_and_add next_id 1;
          hkey = hash_view node;
          node;
          memo_size = -1;
          memo_vars = None;
        }
      in
      Tbl.add tbl key f;
      f

let interned () = Tbl.length (Domain.DLS.get table)

let var v = mk (Var v)

let neg f =
  match f.node with
  | True -> false_
  | False -> true_
  | Not g -> g
  | Var _ | And _ | Or _ -> mk (Not f)

(* Equality: physical first (the common case for same-domain formulas),
   then the structural hash as a cheap rejector, full recursion only for
   hash-equal distinct nodes (cross-domain duplicates, or collisions). *)
let rec equal a b =
  a == b
  || a.hkey = b.hkey
     &&
     match (a.node, b.node) with
     | Var x, Var y -> Var.equal x y
     | Not x, Not y -> equal x y
     | And xs, And ys | Or xs, Or ys -> equal_lists xs ys
     | (True | False | Var _ | Not _ | And _ | Or _), _ -> false

and equal_lists xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs', y :: ys' -> equal x y && equal_lists xs' ys'
  | _, _ -> false

(* Flattening constructor shared by [conj] and [disj]: [unit] is the
   identity element, [zero] the annihilator, [wrap] rebuilds the
   connective and [unwrap] recognizes it for flattening. The constants
   are singletons, so the identity/annihilator tests are pointer
   comparisons (the former polymorphic [=] walked the formula). *)
let connective ~unit ~zero ~wrap ~unwrap juncts =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | f :: rest ->
        if f == zero then None
        else if f == unit then gather acc rest
        else (
          match unwrap f with
          | Some inner -> gather (List.rev_append inner acc) rest
          | None -> gather (f :: acc) rest)
  in
  match gather [] juncts with
  | None -> zero
  | Some [] -> unit
  | Some [ f ] -> f
  | Some fs -> wrap fs

let conj fs =
  connective ~unit:true_ ~zero:false_
    ~wrap:(fun fs -> mk (And fs))
    ~unwrap:(fun f -> match f.node with And fs -> Some fs | _ -> None)
    fs

let disj fs =
  connective ~unit:false_ ~zero:true_
    ~wrap:(fun fs -> mk (Or fs))
    ~unwrap:(fun f -> match f.node with Or fs -> Some fs | _ -> None)
    fs

let ( &&& ) a b = conj [ a; b ]
let ( ||| ) a b = disj [ a; b ]

let and_not a b = a &&& neg b

(* The order is structural (constants < vars < negations < conjunctions
   < disjunctions, then recursively), identical on every domain and
   stable across processes — window grouping and [normalize] depend on
   that, so the node id (allocation-ordered) is deliberately not used. *)
let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | True, True | False, False -> 0
    | True, _ -> -1
    | _, True -> 1
    | False, _ -> -1
    | _, False -> 1
    | Var x, Var y -> Var.compare x y
    | Var _, _ -> -1
    | _, Var _ -> 1
    | Not x, Not y -> compare x y
    | Not _, _ -> -1
    | _, Not _ -> 1
    | And xs, And ys -> compare_lists xs ys
    | And _, _ -> -1
    | _, And _ -> 1
    | Or xs, Or ys -> compare_lists xs ys

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs', y :: ys' ->
      let c = compare x y in
      if c <> 0 then c else compare_lists xs' ys'

let rec normalize f =
  match f.node with
  | True | False | Var _ -> f
  | Not g -> neg (normalize g)
  | And fs -> conj (sorted_juncts fs)
  | Or fs -> disj (sorted_juncts fs)

and sorted_juncts fs =
  let normalized = List.map normalize fs in
  let sorted = List.sort_uniq compare normalized in
  sorted

module VSet = Set.Make (Var)

let rec vars_set f =
  match f.memo_vars with
  | Some vs -> VSet.of_list vs
  | None ->
      let set =
        match f.node with
        | True | False -> VSet.empty
        | Var v -> VSet.singleton v
        | Not g -> vars_set g
        | And fs | Or fs ->
            List.fold_left (fun acc g -> VSet.union acc (vars_set g)) VSet.empty fs
      in
      f.memo_vars <- Some (VSet.elements set);
      set

let vars f =
  match f.memo_vars with
  | Some vs -> vs
  | None -> VSet.elements (vars_set f)

let rec size f =
  if f.memo_size >= 0 then f.memo_size
  else
    let n =
      match f.node with
      | True | False | Var _ -> 1
      | Not g -> 1 + size g
      | And fs | Or fs -> List.fold_left (fun acc g -> acc + size g) 1 fs
    in
    f.memo_size <- n;
    n

let rec eval env f =
  match f.node with
  | True -> true
  | False -> false
  | Var v -> env v
  | Not g -> not (eval env g)
  | And fs -> List.for_all (eval env) fs
  | Or fs -> List.exists (eval env) fs

let rec substitute lookup f =
  match f.node with
  | True | False -> f
  | Var v -> ( match lookup v with Some g -> g | None -> f)
  | Not g -> neg (substitute lookup g)
  | And fs -> conj (List.map (substitute lookup) fs)
  | Or fs -> disj (List.map (substitute lookup) fs)

(* Printing. Precedence levels: Or = 0, And = 1, Not/atom = 2. A child is
   parenthesized when its level is below the context's. The writers are
   top-level recursions over a constant notation, so rendering a
   formula allocates nothing. *)
type notation = { not_ : string; and_ : string; or_ : string }

let paper = { not_ = "\xc2\xac"; and_ = " \xe2\x88\xa7 "; or_ = " \xe2\x88\xa8 " }
let ascii = { not_ = "!"; and_ = " & "; or_ = " | " }

let rec add_node nt buf level f =
  match f.node with
  | True -> Buffer.add_char buf 'T'
  | False -> Buffer.add_char buf 'F'
  | Var v -> Var.add_to_buffer buf v
  | Not g ->
      Buffer.add_string buf nt.not_;
      add_node nt buf 2 g
  | And fs -> add_infix nt buf (level > 1) 2 nt.and_ fs
  | Or fs -> add_infix nt buf (level > 0) 1 nt.or_ fs

and add_infix nt buf parens level sep fs =
  if parens then Buffer.add_char buf '(';
  add_juncts nt buf level sep fs;
  if parens then Buffer.add_char buf ')'

and add_juncts nt buf level sep = function
  | [] -> ()
  | [ f ] -> add_node nt buf level f
  | f :: rest ->
      add_node nt buf level f;
      Buffer.add_string buf sep;
      add_juncts nt buf level sep rest

let add_to_buffer buf f = add_node paper buf 0 f
let add_to_buffer_ascii buf f = add_node ascii buf 0 f

let render add f =
  let buf = Buffer.create 64 in
  add buf f;
  Buffer.contents buf

let to_string f = render add_to_buffer f
let to_string_ascii f = render add_to_buffer_ascii f

let pp ppf f = Format.pp_print_string ppf (to_string f)

(* Recursive-descent parser for the ASCII notation. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = invalid_arg (Printf.sprintf "Formula.of_string: %s at %d in %S" msg !pos s) in
  let rec skip_ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') then (incr pos; skip_ws ())
  in
  let peek () =
    skip_ws ();
    if !pos < n then Some s.[!pos] else None
  in
  let advance () = incr pos in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  let ident () =
    let start = !pos in
    while !pos < n && is_ident s.[!pos] do incr pos done;
    if !pos = start then fail "expected identifier";
    String.sub s start (!pos - start)
  in
  let rec parse_or () =
    let left = parse_and () in
    match peek () with
    | Some '|' ->
        advance ();
        left ||| parse_or ()
    | _ -> left
  and parse_and () =
    let left = parse_atom () in
    match peek () with
    | Some '&' ->
        advance ();
        left &&& parse_and ()
    | _ -> left
  and parse_atom () =
    match peek () with
    | Some '!' ->
        advance ();
        neg (parse_atom ())
    | Some '(' ->
        advance ();
        let f = parse_or () in
        (match peek () with
        | Some ')' -> advance (); f
        | _ -> fail "expected ')'")
    | Some c when is_ident c -> (
        let id = ident () in
        match id with
        | "T" -> true_
        | "F" -> false_
        | _ -> (
            match Var.of_string id with
            | v -> var v
            | exception Invalid_argument _ -> fail ("bad variable " ^ id)))
    | _ -> fail "expected formula"
  in
  let f = parse_or () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  f
