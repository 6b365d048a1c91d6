module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Fact = Tpdb_relation.Fact

type kind = Overlapping | Unmatched | Negating

type t = {
  kind : kind;
  fr : Fact.t;
  fs : Fact.t option;
  iv : Interval.t;
  lr : Formula.t;
  ls : Formula.t option;
  rspan : Interval.t;
  sspan : Interval.t option;
  p : float;
}

let check_span name span iv =
  if not (Interval.covers span iv) then
    invalid_arg
      (Printf.sprintf "Window: %s %s does not cover window interval %s" name
         (Interval.to_string span) (Interval.to_string iv))

let overlapping ?(p = Float.nan) ~fr ~fs ~iv ~lr ~ls ~rspan ~sspan () =
  check_span "rspan" rspan iv;
  check_span "sspan" sspan iv;
  {
    kind = Overlapping;
    fr;
    fs = Some fs;
    iv;
    lr;
    ls = Some ls;
    rspan;
    sspan = Some sspan;
    p;
  }

let unmatched ?(p = Float.nan) ~fr ~iv ~lr ~rspan () =
  check_span "rspan" rspan iv;
  let fs = None and ls = None and sspan = None in
  { kind = Unmatched; fr; fs; iv; lr; ls; rspan; sspan; p }

let negating ?(p = Float.nan) ~fr ~iv ~lr ~ls ~rspan () =
  check_span "rspan" rspan iv;
  let ls = Some ls in
  { kind = Negating; fr; fs = None; iv; lr; ls; rspan; sspan = None; p }

let kind w = w.kind
let fr w = w.fr
let fs w = w.fs
let iv w = w.iv
let lr w = w.lr
let ls w = w.ls
let rspan w = w.rspan
let p w = w.p

let same_group a b =
  Interval.equal a.rspan b.rspan
  && Fact.equal a.fr b.fr
  && Formula.equal a.lr b.lr

let kind_rank = function Unmatched -> 0 | Overlapping -> 1 | Negating -> 2

let compare_option cmp a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> cmp x y

let compare_group a b =
  let c = Fact.compare a.fr b.fr in
  if c <> 0 then c
  else
    let c = Interval.compare a.rspan b.rspan in
    if c <> 0 then c else Formula.compare a.lr b.lr

let compare_group_start a b =
  let c = compare_group a b in
  if c <> 0 then c
  else
    let c = Interval.compare a.iv b.iv in
        if c <> 0 then c
        else
          let c = Int.compare (kind_rank a.kind) (kind_rank b.kind) in
          if c <> 0 then c
          else
            let c = compare_option Fact.compare a.fs b.fs in
            if c <> 0 then c
            else
              compare_option Formula.compare
                (Option.map Formula.normalize a.ls)
                (Option.map Formula.normalize b.ls)

let equal a b =
  a.kind = b.kind
  && Fact.equal a.fr b.fr
  && compare_option Fact.compare a.fs b.fs = 0
  && Interval.equal a.iv b.iv
  && Formula.equal a.lr b.lr
  && compare_option Formula.compare
       (Option.map Formula.normalize a.ls)
       (Option.map Formula.normalize b.ls)
     = 0
  && Interval.equal a.rspan b.rspan

let kind_string = function
  | Overlapping -> "overlapping"
  | Unmatched -> "unmatched"
  | Negating -> "negating"

let to_string w =
  Printf.sprintf "%s('%s', %s, %s, %s, %s)" (kind_string w.kind)
    (Fact.to_string w.fr)
    (match w.fs with Some f -> "'" ^ Fact.to_string f ^ "'" | None -> "null")
    (Interval.to_string w.iv)
    (Formula.to_string w.lr)
    (match w.ls with Some l -> Formula.to_string l | None -> "null")

let pp ppf w = Format.pp_print_string ppf (to_string w)
