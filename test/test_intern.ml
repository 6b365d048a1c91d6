(* Pins what interning guarantees, against an oracle: a test-local copy
   of the [Hashtbl]-keyed unique table [Formula] used before its table
   became open addressing. Both interners replay the same random
   program of constructor calls; the real one runs in a fresh domain,
   so its table starts empty like the oracle's. They must agree on
   which results are the same node, on the order ids are drawn in, on
   every structural hash and on how many nodes were interned. *)

module Var = Tpdb_lineage.Var
module Formula = Tpdb_lineage.Formula

(* The oracle: the former interner, verbatim in its construction and
   hashing, with a table of its own per instance. *)
module Oracle () = struct
  type t = { id : int; hkey : int; node : view }

  and view =
    | True
    | False
    | Var of Var.t
    | Not of t
    | And of t list
    | Or of t list

  let combine seed h = ((seed * 31) + h) land max_int
  let var_hash (v : Var.t) = Hashtbl.hash (v.rel, v.idx)

  let hash_view = function
    | True -> 0x21a3d
    | False -> 0x47b91
    | Var v -> combine 0x11 (var_hash v)
    | Not f -> combine 0x7f f.hkey
    | And fs -> List.fold_left (fun h f -> combine h f.hkey) 0x3b5 fs
    | Or fs -> List.fold_left (fun h f -> combine h f.hkey) 0x9c7 fs

  let true_ = { id = 0; hkey = hash_view True; node = True }
  let false_ = { id = 1; hkey = hash_view False; node = False }
  let next_id = ref 2

  module Key = struct
    type t = KVar of Var.t | KNot of int | KAnd of int list | KOr of int list

    let equal a b =
      match (a, b) with
      | KVar u, KVar v -> Var.equal u v
      | KNot i, KNot j -> Int.equal i j
      | KAnd xs, KAnd ys | KOr xs, KOr ys -> List.equal Int.equal xs ys
      | (KVar _ | KNot _ | KAnd _ | KOr _), _ -> false

    let hash = function
      | KVar v -> combine 0x11 (var_hash v)
      | KNot i -> combine 0x7f i
      | KAnd is -> List.fold_left combine 0x3b5 is
      | KOr is -> List.fold_left combine 0x9c7 is
  end

  module Tbl = Hashtbl.Make (Key)

  let table : t Tbl.t = Tbl.create 1024

  let key_of = function
    | True | False -> assert false
    | Var v -> Key.KVar v
    | Not f -> Key.KNot f.id
    | And fs -> Key.KAnd (List.map (fun f -> f.id) fs)
    | Or fs -> Key.KOr (List.map (fun f -> f.id) fs)

  let mk node =
    let key = key_of node in
    match Tbl.find_opt table key with
    | Some f -> f
    | None ->
        let f = { id = !next_id; hkey = hash_view node; node } in
        incr next_id;
        Tbl.add table key f;
        f

  let interned () = Tbl.length table
  let var v = mk (Var v)

  let neg f =
    match f.node with
    | True -> false_
    | False -> true_
    | Not g -> g
    | Var _ | And _ | Or _ -> mk (Not f)

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
    | And fs -> conj (List.sort_uniq compare (List.map normalize fs))
    | Or fs -> disj (List.sort_uniq compare (List.map normalize fs))

  let rec substitute lookup f =
    match f.node with
    | True | False -> f
    | Var v -> ( match lookup v with Some g -> g | None -> f)
    | Not g -> neg (substitute lookup g)
    | And fs -> conj (List.map (substitute lookup) fs)
    | Or fs -> disj (List.map (substitute lookup) fs)

  (* The same recursive descent as [Formula.of_string], so nodes are
     interned in the same order. Inputs come from [to_string_ascii], so
     errors are not modelled. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let rec skip_ws () =
      if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') then (incr pos; skip_ws ())
    in
    let peek () =
      skip_ws ();
      if !pos < n then Some s.[!pos] else None
    in
    let is_ident c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_'
    in
    let rec parse_or () =
      let left = parse_and () in
      match peek () with
      | Some '|' ->
          incr pos;
          left ||| parse_or ()
      | _ -> left
    and parse_and () =
      let left = parse_atom () in
      match peek () with
      | Some '&' ->
          incr pos;
          left &&& parse_and ()
      | _ -> left
    and parse_atom () =
      match peek () with
      | Some '!' ->
          incr pos;
          neg (parse_atom ())
      | Some '(' ->
          incr pos;
          let f = parse_or () in
          incr pos;
          f
      | _ -> (
          let start = !pos in
          while !pos < n && is_ident s.[!pos] do incr pos done;
          match String.sub s start (!pos - start) with
          | "T" -> true_
          | "F" -> false_
          | id -> var (Var.of_string id))
    in
    parse_or ()
end

(* --- the random program --------------------------------------------- *)

(* Operands are drawn from earlier results no larger than this, which
   keeps junct lists and printed strings short while still nesting. *)
let operand_size = 40

(* Results small enough to parse, normalize or substitute into. *)
let rewrite_size = 24

type kind = K_true | K_false | K_var | K_not | K_and | K_or

let kind f =
  match Formula.view f with
  | Formula.True -> K_true
  | Formula.False -> K_false
  | Formula.Var _ -> K_var
  | Formula.Not _ -> K_not
  | Formula.And _ -> K_and
  | Formula.Or _ -> K_or

type outcome = {
  real : Formula.t array;
  real_ids : int array;
  real_hashes : int array;
  model_ids : int array;
  model_hashes : int array;
  same_real : int array;  (** first index whose real result is [==] *)
  same_model : int array;  (** first index whose oracle result is [==] *)
  interned : (int * int) list;  (** (real, oracle) counts at checkpoints *)
  laws : string list;  (** binary-constructor laws that failed *)
}

(* Replays [steps] random constructor calls on both interners. Pool
   slots 0 and 1 hold the constants; [foreign] are formulas interned on
   another domain, used only as operands of the binary-constructor
   laws (the oracle has no counterpart for them). *)
let run ~seed ~steps ~foreign =
  let module O = Oracle () in
  let rng = Random.State.make [| seed |] in
  let cap = steps + 2 in
  let real = Array.make cap Formula.true_ and model = Array.make cap O.true_ in
  real.(1) <- Formula.false_;
  model.(1) <- O.false_;
  let n = ref 2 in
  let small = Array.make cap 0 and n_small = ref 0 in
  let push r m =
    real.(!n) <- r;
    model.(!n) <- m;
    if Formula.size r <= operand_size then begin
      small.(!n_small) <- !n;
      incr n_small
    end;
    incr n
  in
  small.(0) <- 0;
  small.(1) <- 1;
  n_small := 2;
  let int k = Random.State.int rng k in
  (* half the picks come from the last few results, so chains nest *)
  let pick () =
    if int 2 = 0 then small.(int !n_small)
    else small.(max 0 (!n_small - 1 - int (min !n_small 16)))
  in
  let pick_rewritable () =
    let rec go tries =
      let i = pick () in
      if tries = 0 || Formula.size real.(i) <= rewrite_size then i else go (tries - 1)
    in
    go 4
  in
  let fresh_var () =
    Var.make (match int 3 with 0 -> "a" | 1 -> "b" | _ -> "c") (int 3000)
  in
  let interned = ref [] in
  let checkpoint () = interned := (Formula.interned (), O.interned ()) :: !interned in
  for step = 1 to steps do
    (match int 20 with
    | 0 | 1 | 2 | 3 | 4 | 5 ->
        let v = fresh_var () in
        push (Formula.var v) (O.var v)
    | 6 ->
        let i = pick () in
        push (Formula.neg real.(i)) (O.neg model.(i))
    | 7 | 8 ->
        let is = List.init (int 5) (fun _ -> pick ()) in
        push
          (Formula.conj (List.map (fun i -> real.(i)) is))
          (O.conj (List.map (fun i -> model.(i)) is))
    | 9 ->
        let is = List.init (int 5) (fun _ -> pick ()) in
        push
          (Formula.disj (List.map (fun i -> real.(i)) is))
          (O.disj (List.map (fun i -> model.(i)) is))
    | 10 | 11 ->
        let i = pick () and j = pick () in
        push Formula.(real.(i) &&& real.(j)) O.(model.(i) &&& model.(j))
    | 12 ->
        let i = pick () and j = pick () in
        push Formula.(real.(i) ||| real.(j)) O.(model.(i) ||| model.(j))
    | 13 | 14 | 15 ->
        let i = pick () and j = pick () in
        push (Formula.and_not real.(i) real.(j)) (O.and_not model.(i) model.(j))
    | 16 ->
        let i = pick_rewritable () in
        push (Formula.normalize real.(i)) (O.normalize model.(i))
    | 17 ->
        let i = pick_rewritable () and into = pick_rewritable () in
        let k = int 5 in
        let hits (v : Var.t) = v.idx mod 5 = k in
        push
          (Formula.substitute
             (fun v -> if hits v then Some real.(into) else None)
             real.(i))
          (O.substitute (fun v -> if hits v then Some model.(into) else None) model.(i))
    | _ ->
        let i = pick_rewritable () in
        let s = Formula.to_string_ascii real.(i) in
        push (Formula.of_string s) (O.of_string s));
    if step mod 500 = 0 then checkpoint ()
  done;
  checkpoint ();
  let count = !n in
  let real = Array.sub real 0 count and model = Array.sub model 0 count in
  let first_by ids =
    let seen = Hashtbl.create count in
    Array.mapi
      (fun i id ->
        match Hashtbl.find_opt seen id with
        | Some j -> j
        | None ->
            Hashtbl.add seen id i;
            i)
      ids
  in
  let real_ids = Array.map Formula.id real in
  let model_ids = Array.map (fun (m : O.t) -> m.id) model in
  let same_real = first_by real_ids and same_model = first_by model_ids in
  Array.iteri
    (fun i j ->
      if not (real.(i) == real.(j) && model.(i) == model.(same_model.(i))) then
        failwith "ids name more than one node")
    same_real;
  (* the laws, over one operand of every kind plus random pairs *)
  let laws = ref [] in
  let law name ok a b =
    if not ok then
      laws :=
        Printf.sprintf "%s on %s ; %s" name (Formula.to_string_ascii a)
          (Formula.to_string_ascii b)
        :: !laws
  in
  let check_pair a b =
    law "a &&& b == conj [a; b]" Formula.(a &&& b == conj [ a; b ]) a b;
    law "a ||| b == disj [a; b]" Formula.(a ||| b == disj [ a; b ]) a b;
    law "and_not a b == conj [a; neg b]"
      Formula.(and_not a b == conj [ a; neg b ])
      a b
  in
  let representatives =
    List.filter_map
      (fun k ->
        Array.fold_left
          (fun acc f -> match acc with None when kind f = k -> Some f | _ -> acc)
          None real)
      [ K_true; K_false; K_var; K_not; K_and; K_or ]
    @ foreign
  in
  List.iter (fun a -> List.iter (check_pair a) representatives) representatives;
  for _ = 1 to 300 do
    check_pair real.(pick ()) real.(pick ())
  done;
  {
    real;
    real_ids;
    real_hashes = Array.map Formula.hash real;
    model_ids;
    model_hashes = Array.map (fun (m : O.t) -> m.hkey) model;
    same_real;
    same_model;
    interned = List.rev !interned;
    laws = !laws;
  }

let steps = 10_000

(* Formulas of every non-constant kind, interned on the calling domain. *)
let foreign () =
  Formula.
    [
      of_string "x1";
      of_string "!x2";
      of_string "x1 & x3";
      of_string "x2 | x4";
      of_string "x1 & !(x2 | x4)";
    ]

let agrees seed =
  let foreign = foreign () in
  let o = Domain.join (Domain.spawn (fun () -> run ~seed ~steps ~foreign)) in
  let fail fmt = QCheck2.Test.fail_reportf fmt in
  (* sharing: the same pairs of results are one node under both *)
  Array.iteri
    (fun i j ->
      if o.same_model.(i) <> j then
        fail "result %d (%s) is shared with %d under the table, %d under the oracle" i
          (Formula.to_string_ascii o.real.(i))
          j o.same_model.(i))
    o.same_real;
  (* ids: drawn on the same misses, in the same order *)
  let delta = ref None in
  Array.iteri
    (fun i id ->
      let m = o.model_ids.(i) in
      if id < 2 || m < 2 then (
        if id <> m then fail "result %d: constant id %d, oracle %d" i id m)
      else
        match !delta with
        | None -> delta := Some (id - m)
        | Some d ->
            if id - m <> d then
              fail "result %d (%s): id %d is %d past the oracle's %d, earlier results %d"
                i
                (Formula.to_string_ascii o.real.(i))
                id (id - m) m d)
    o.real_ids;
  Array.iteri
    (fun i h ->
      if h <> o.model_hashes.(i) then
        fail "result %d (%s): hash %d, oracle %d" i
          (Formula.to_string_ascii o.real.(i))
          h o.model_hashes.(i))
    o.real_hashes;
  List.iteri
    (fun k (r, m) ->
      if r <> m then fail "checkpoint %d: %d interned, oracle %d" k r m)
    o.interned;
  (match List.rev o.interned with
  | (last, _) :: _ when last > 5000 -> ()
  | (last, _) :: _ -> fail "only %d nodes interned; the table never grew enough" last
  | [] -> fail "no checkpoint");
  (match o.laws with [] -> () | l -> fail "%s" (String.concat "\n" l));
  true

let prop_matches_oracle =
  QCheck2.Test.make ~name:"interning matches the Hashtbl interner" ~count:6
    ~print:string_of_int QCheck2.Gen.int agrees

let suite = [ QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_matches_oracle ]
