(* Hash-consed lineage formulas.

   Every formula is interned in a unique table keyed by the ids of its
   children, so structurally equal formulas built on the same domain are
   physically shared: equality of shared nodes is a pointer comparison,
   [hash] reads a precomputed field, and [vars]/[size] memoize per node.
   The sweeping window operators rebuild each window's lineage out of
   largely the same sub-formulas as its neighbor's, so the sharing is
   what turns the per-window lineage work from O(window size) into
   O(delta).

   The table is open addressing with linear probing over two parallel
   arrays: [keys.(i)] is [hkey + 1] of the node in slot [i] (0 marks an
   empty slot) and [nodes.(i)] is the node. A slot's home is a
   multiplicative (Fibonacci) mix of the key: [combine] is a plain
   [31·h + x], whose low bits alone would crowd related formulas into
   runs of neighbouring slots. A probe compares the stored key first
   and then the candidate's children by id, in place: no key value,
   option or closure is built per lookup, and the binary constructors
   ([&&&], [|||], [and_not], [neg]) build their [And [a; b]] list or
   [Not] node only when it is new, so a hit allocates nothing. The
   table grows by doubling past a load of 2/3.

   Ids are drawn on a miss only, so a node's id depends on the order of
   misses alone, which no layout of the table changes; nodes are never
   removed.

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

(* Seeds of the structural hash, one per connective. *)
let var_seed = 0x11
let not_seed = 0x7f
let and_seed = 0x3b5
let or_seed = 0x9c7

let rec hash_juncts h = function
  | [] -> h
  | f :: rest -> hash_juncts (combine h f.hkey) rest

(* Ids 0 and 1 belong to the constant singletons, which are shared by
   every domain (the constructors below never re-intern them). *)
let true_ = { id = 0; hkey = 0x21a3d; node = True; memo_size = 1; memo_vars = Some [] }
let false_ = { id = 1; hkey = 0x47b91; node = False; memo_size = 1; memo_vars = Some [] }

let next_id = Atomic.make 2

(* --- the unique table ------------------------------------------------ *)

type table = {
  mutable keys : int array;  (** [hkey + 1] per slot; 0 = empty *)
  mutable nodes : t array;  (** [true_] in empty slots *)
  mutable shift : int;  (** [Sys.int_size - log2 (Array.length keys)] *)
  mutable count : int;
}

let initial_bits = 10

let create_table () =
  {
    keys = Array.make (1 lsl initial_bits) 0;
    nodes = Array.make (1 lsl initial_bits) true_;
    shift = Sys.int_size - initial_bits;
    count = 0;
  }

let table : table Domain.DLS.key = Domain.DLS.new_key create_table

(* The top bits of the key times 2^63 / φ (odd). *)
let home key shift = (key * 0x4f1bbcdcbfa53e0b) lsr shift

(* Each finder walks the probe sequence from slot [i] and returns the
   slot holding the wanted node, or [lnot] of the empty slot that ends
   the sequence (where the node goes if it is new). They are top-level
   recursions, so a probe allocates nothing. *)

let rec find_var keys nodes key v i =
  let k = Array.unsafe_get keys i in
  if k = 0 then lnot i
  else if
    k = key
    && match (Array.unsafe_get nodes i).node with Var u -> Var.equal u v | _ -> false
  then i
  else find_var keys nodes key v ((i + 1) land (Array.length keys - 1))

let rec find_not keys nodes key child i =
  let k = Array.unsafe_get keys i in
  if k = 0 then lnot i
  else if
    k = key
    && match (Array.unsafe_get nodes i).node with Not g -> g.id = child | _ -> false
  then i
  else find_not keys nodes key child ((i + 1) land (Array.length keys - 1))

let rec find_pair keys nodes key is_and a b i =
  let k = Array.unsafe_get keys i in
  if k = 0 then lnot i
  else if
    k = key
    &&
    match (Array.unsafe_get nodes i).node with
    | And [ x; y ] -> is_and && x.id = a && y.id = b
    | Or [ x; y ] -> (not is_and) && x.id = a && y.id = b
    | _ -> false
  then i
  else find_pair keys nodes key is_and a b ((i + 1) land (Array.length keys - 1))

let rec same_ids xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs', y :: ys' -> x.id = y.id && same_ids xs' ys'
  | _, _ -> false

let rec find_juncts keys nodes key is_and fs i =
  let k = Array.unsafe_get keys i in
  if k = 0 then lnot i
  else if
    k = key
    &&
    match (Array.unsafe_get nodes i).node with
    | And gs -> is_and && same_ids fs gs
    | Or gs -> (not is_and) && same_ids fs gs
    | _ -> false
  then i
  else find_juncts keys nodes key is_and fs ((i + 1) land (Array.length keys - 1))

let rec free_slot keys i =
  if Array.unsafe_get keys i = 0 then i
  else free_slot keys ((i + 1) land (Array.length keys - 1))

(* Doubles both arrays and re-places every node by its stored key. *)
let grow tbl =
  let old_keys = tbl.keys and old_nodes = tbl.nodes in
  let size = 2 * Array.length old_keys in
  let keys = Array.make size 0 and nodes = Array.make size true_ in
  let shift = tbl.shift - 1 in
  Array.iteri
    (fun i key ->
      if key <> 0 then begin
        let j = free_slot keys (home key shift) in
        keys.(j) <- key;
        nodes.(j) <- old_nodes.(i)
      end)
    old_keys;
  tbl.keys <- keys;
  tbl.nodes <- nodes;
  tbl.shift <- shift

(* A miss: the only place ids are drawn. [slot] is where the probe for
   [key] ended; growing moves the node's place. *)
let add tbl key slot hkey node =
  let f =
    { id = Atomic.fetch_and_add next_id 1; hkey; node; memo_size = -1; memo_vars = None }
  in
  let slot =
    if 3 * (tbl.count + 1) > 2 * Array.length tbl.keys then begin
      grow tbl;
      free_slot tbl.keys (home key tbl.shift)
    end
    else slot
  in
  tbl.keys.(slot) <- key;
  tbl.nodes.(slot) <- f;
  tbl.count <- tbl.count + 1;
  f

let interned () = (Domain.DLS.get table).count

let var v =
  let tbl = Domain.DLS.get table in
  let hkey = combine var_seed (Var.hash v) in
  let key = hkey + 1 in
  let slot = find_var tbl.keys tbl.nodes key v (home key tbl.shift) in
  if slot >= 0 then tbl.nodes.(slot) else add tbl key (lnot slot) hkey (Var v)

let intern_not f =
  let tbl = Domain.DLS.get table in
  let hkey = combine not_seed f.hkey in
  let key = hkey + 1 in
  let slot = find_not tbl.keys tbl.nodes key f.id (home key tbl.shift) in
  if slot >= 0 then tbl.nodes.(slot) else add tbl key (lnot slot) hkey (Not f)

(* [a ∧ b] ([is_and]) or [a ∨ b], for operands that need no folding or
   flattening: the list is built only for a new node. *)
let intern_pair is_and a b =
  let tbl = Domain.DLS.get table in
  let hkey = combine (combine (if is_and then and_seed else or_seed) a.hkey) b.hkey in
  let key = hkey + 1 in
  let slot = find_pair tbl.keys tbl.nodes key is_and a.id b.id (home key tbl.shift) in
  if slot >= 0 then tbl.nodes.(slot)
  else add tbl key (lnot slot) hkey (if is_and then And [ a; b ] else Or [ a; b ])

(* A connective over [fs], already flattened and folded (>= 2 juncts). *)
let intern_juncts is_and fs =
  let tbl = Domain.DLS.get table in
  let hkey = hash_juncts (if is_and then and_seed else or_seed) fs in
  let key = hkey + 1 in
  let slot = find_juncts tbl.keys tbl.nodes key is_and fs (home key tbl.shift) in
  if slot >= 0 then tbl.nodes.(slot)
  else add tbl key (lnot slot) hkey (if is_and then And fs else Or fs)

let neg f =
  match f.node with
  | True -> false_
  | False -> true_
  | Not g -> g
  | Var _ | And _ | Or _ -> intern_not f

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

(* Flattening constructor shared by [conj] ([is_and]) and [disj]: [unit]
   is the identity element and [zero] the annihilator. The constants
   are singletons, so the identity/annihilator tests are pointer
   comparisons. [gather] keeps the juncts in order, drops units and
   splices in the juncts of a nested connective of the same kind. *)
let rec gather is_and unit acc = function
  | [] -> List.rev acc
  | f :: rest -> (
      if f == unit then gather is_and unit acc rest
      else
        match f.node with
        | And inner when is_and -> gather is_and unit (List.rev_append inner acc) rest
        | Or inner when not is_and -> gather is_and unit (List.rev_append inner acc) rest
        | _ -> gather is_and unit (f :: acc) rest)

let connective is_and ~unit ~zero juncts =
  if List.memq zero juncts then zero
  else
    match gather is_and unit [] juncts with
    | [] -> unit
    | [ f ] -> f
    | fs -> intern_juncts is_and fs

let conj fs = connective true ~unit:true_ ~zero:false_ fs
let disj fs = connective false ~unit:false_ ~zero:true_ fs

(* A junct [&&&]/[|||] can pair as is: not a constant (which folds) and
   not a connective of the same kind (which flattens). *)
let pairs is_and f =
  match f.node with
  | True | False -> false
  | And _ -> not is_and
  | Or _ -> is_and
  | Var _ | Not _ -> true

let ( &&& ) a b =
  if pairs true a && pairs true b then intern_pair true a b else conj [ a; b ]

let ( ||| ) a b =
  if pairs false a && pairs false b then intern_pair false a b else disj [ a; b ]

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
