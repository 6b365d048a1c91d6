module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula

type t = {
  fact : Fact.t;
  lineage : Formula.t;
  iv : Interval.t;
  p : float;
}

let make ~fact ~lineage ~iv ~p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Tuple.make: probability %g out of [0,1]" p);
  { fact; lineage; iv; p }

(* The initial element of every array of tuples the library builds,
   filled in afterwards: built once, it is old after the process's first
   minor collection, so [Array.make n placeholder] never forces one (see
   [Flat.Vec] for the rule). *)
let placeholder = { fact = [||]; lineage = Formula.true_; iv = Interval.make 0 1; p = 0.0 }

let fact t = t.fact
let lineage t = t.lineage
let iv t = t.iv
let p t = t.p

let valid_at t time = Interval.contains t.iv time

let compare_fact_start a b =
  let c = Fact.compare a.fact b.fact in
  if c <> 0 then c
  else
    let c = Interval.compare a.iv b.iv in
    if c <> 0 then c else Formula.compare a.lineage b.lineage

let compare_start a b = Interval.compare a.iv b.iv

let equal a b =
  Fact.equal a.fact b.fact
  && Interval.equal a.iv b.iv
  && Formula.equal (Formula.normalize a.lineage) (Formula.normalize b.lineage)
  && Float.abs (a.p -. b.p) < 1e-9

let to_string t =
  Printf.sprintf "('%s', %s, %s, %g)" (Fact.to_string t.fact)
    (Formula.to_string t.lineage)
    (Interval.to_string t.iv)
    t.p

let pp ppf t = Format.pp_print_string ppf (to_string t)
