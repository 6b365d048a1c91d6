module Relation = Tpdb_relation.Relation
module Schema = Tpdb_relation.Schema
module Interval = Tpdb_interval.Interval
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj

type estimate = {
  rows : float;
  distinct : int array;
  sample : (int * int) array;
  cost : float;
}

(* Plans contain closures (filter predicates, sort comparators), so the
   estimate table is an assoc list keyed on node physical identity — a
   plan has tens of nodes, not thousands. *)
type t = { entries : (Physical.t * estimate) list; root : estimate }

let find t node =
  List.find_map (fun (n, e) -> if n == node then Some e else None) t.entries

let rows t node = Option.map (fun e -> e.rows) (find t node)
let root t = t.root

(* Unknown-predicate selectivity, the textbook fallback. *)
let third = 1.0 /. 3.0

(* Cap for sample pair counting: 64×64 pairs bounds the work while a
   systematic 64-element sub-sample of the ≤256-element sample keeps the
   spread. *)
let pair_cap = 64

let sub_sample a =
  let n = Array.length a in
  if n <= pair_cap then a
  else
    let stride = (n + pair_cap - 1) / pair_cap in
    Array.init ((n + stride - 1) / stride) (fun i -> a.(i * stride))

let temporal_selectivity theta left right =
  if Array.length left = 0 || Array.length right = 0 then 0.5
  else begin
    let left = sub_sample left and right = sub_sample right in
    let hits = ref 0 in
    Array.iter
      (fun (lts, lte) ->
        let liv = Interval.make lts lte in
        Array.iter
          (fun (rts, rte) ->
            let riv = Interval.make rts rte in
            if Theta.temporal_matches theta liv riv && Interval.overlaps liv riv
            then incr hits)
          right)
      left;
    float_of_int !hits /. float_of_int (Array.length left * Array.length right)
  end

let distinct_at distinct col =
  if col >= 0 && col < Array.length distinct then max 1 distinct.(col) else 1

(* Selectivity of θ's attribute atoms given the two sides' distinct
   counts: 1/max(distinct) per equality, 1/3 per anything else. *)
let atom_selectivity ~left_distinct ~right_distinct theta =
  List.fold_left
    (fun sel atom ->
      sel
      *.
      match (atom : Theta.atom) with
      | Theta.Cols (`Eq, i, j) ->
          1.0
          /. float_of_int
               (max (distinct_at left_distinct i) (distinct_at right_distinct j))
      | Theta.Left_const (`Eq, i, _) ->
          1.0 /. float_of_int (distinct_at left_distinct i)
      | Theta.Right_const (`Eq, j, _) ->
          1.0 /. float_of_int (distinct_at right_distinct j)
      | Theta.Cols _ | Theta.Left_const _ | Theta.Right_const _ -> third)
    1.0 (Theta.atoms theta)

let scale_distinct factor distinct =
  Array.map
    (fun d -> max 1 (int_of_float (ceil (float_of_int d *. Float.min 1.0 factor))))
    distinct

let take_sample n a =
  if Array.length a <= n then a else Array.sub a 0 n

let of_stats (s : Stats.t) =
  let d = Stats.detail s in
  {
    rows = float_of_int s.Stats.cardinality;
    distinct = d.Stats.distinct;
    sample = d.Stats.sample;
    cost = float_of_int s.Stats.cardinality;
  }

let join_sample kind left right =
  (* WO output intervals are pairwise intersections; outer/anti outputs
     additionally keep (pieces of) left/right input intervals. Sampling
     the intersections of positionally paired sample entries is enough
     signal for parents. *)
  let isect =
    let n = min (Array.length left) (Array.length right) in
    Array.to_list
      (Array.init n (fun i ->
           let lts, lte = left.(i) and rts, rte = right.(i) in
           (max lts rts, min lte rte)))
    |> List.filter (fun (ts, te) -> ts < te)
    |> Array.of_list
  in
  let keep_left =
    match (kind : Nj.join_kind) with
    | Inner -> [||]
    | Anti | Left | Full -> left
    | Right -> [||]
  in
  let keep_right =
    match (kind : Nj.join_kind) with Right | Full -> right | _ -> [||]
  in
  take_sample Stats.sample_size (Array.concat [ isect; keep_left; keep_right ])

let of_plan ~stats plan =
  let entries = ref [] in
  let rec go node =
    let e =
      match (node : Physical.t) with
      | Scan r ->
          let s =
            match stats (Relation.name r) with
            | Some s -> s
            (* No stats file: compute from the scanned relation itself.
               Exact (the scan holds the data) and cheap at CLI scale;
               persisted stats exist to skip this for large catalogs. *)
            | None -> Stats.of_relation r
          in
          of_stats s
      | Filter { child; _ } ->
          let c = go child in
          let rows = c.rows *. third in
          {
            rows;
            distinct = scale_distinct third c.distinct;
            sample = c.sample;
            cost = c.cost +. c.rows;
          }
      | Timeslice { window; child } ->
          let c = go child in
          let sel =
            if Array.length c.sample = 0 then 1.0
            else
              let hits =
                Array.fold_left
                  (fun n (ts, te) ->
                    if ts < Interval.te window && Interval.ts window < te then
                      n + 1
                    else n)
                  0 c.sample
              in
              float_of_int hits /. float_of_int (Array.length c.sample)
          in
          let sample =
            Array.to_list c.sample
            |> List.filter_map (fun (ts, te) ->
                   let ts = max ts (Interval.ts window)
                   and te = min te (Interval.te window) in
                   if ts < te then Some (ts, te) else None)
            |> Array.of_list
          in
          {
            rows = c.rows *. sel;
            distinct = scale_distinct sel c.distinct;
            sample;
            cost = c.cost +. c.rows;
          }
      | Project { columns; child; _ } ->
          let c = go child in
          {
            c with
            distinct =
              Array.of_list (List.map (distinct_at c.distinct) columns);
            cost = c.cost +. c.rows;
          }
      | Distinct_project { columns; child; _ } ->
          let c = go child in
          let distinct =
            Array.of_list (List.map (distinct_at c.distinct) columns)
          in
          let groups =
            Array.fold_left
              (fun acc d -> Float.min c.rows (acc *. float_of_int d))
              1.0 distinct
          in
          { rows = groups; distinct; sample = c.sample; cost = c.cost +. c.rows }
      | Aggregate { group_by; child; _ } ->
          let c = go child in
          let group_distinct = List.map (distinct_at c.distinct) group_by in
          let groups =
            List.fold_left
              (fun acc d -> Float.min c.rows (acc *. float_of_int d))
              1.0 group_distinct
          in
          let schema = Physical.schema node in
          (* group-by columns keep their distinct counts; the appended
             aggregate column is unknown — call it [groups]. *)
          let distinct =
            Array.init (Schema.arity schema) (fun i ->
                match List.nth_opt group_distinct i with
                | Some d -> d
                | None -> max 1 (int_of_float groups))
          in
          { rows = groups; distinct; sample = c.sample; cost = c.cost +. c.rows }
      | Sort_limit { limit; child; _ } ->
          let c = go child in
          let rows =
            match limit with
            | None -> c.rows
            | Some n -> Float.min c.rows (float_of_int n)
          in
          let sel = if c.rows > 0.0 then rows /. c.rows else 1.0 in
          {
            rows;
            distinct = scale_distinct sel c.distinct;
            sample = c.sample;
            cost = c.cost +. (c.rows *. log (c.rows +. 2.0));
          }
      | Tp_join { kind; theta; left; right; _ } ->
          let l = go left and r = go right in
          let pairs =
            l.rows *. r.rows
            *. atom_selectivity ~left_distinct:l.distinct
                 ~right_distinct:r.distinct theta
            *. temporal_selectivity theta l.sample r.sample
          in
          let rows =
            match (kind : Nj.join_kind) with
            | Inner -> pairs
            | Left -> pairs +. l.rows
            | Right -> pairs +. r.rows
            | Full -> pairs +. l.rows +. r.rows
            | Anti -> l.rows
          in
          let distinct =
            match (kind : Nj.join_kind) with
            | Anti -> l.distinct
            | Inner | Left | Right | Full -> Array.append l.distinct r.distinct
          in
          {
            rows;
            distinct;
            sample = join_sample kind l.sample r.sample;
            cost = l.cost +. r.cost +. l.rows +. r.rows +. pairs;
          }
      | Set_op { kind; left; right; _ } ->
          let l = go left and r = go right in
          let rows =
            match kind with
            | `Union -> l.rows +. r.rows
            | `Intersect -> Float.min l.rows r.rows
            | `Except -> l.rows
          in
          {
            rows;
            distinct = l.distinct;
            sample =
              take_sample Stats.sample_size (Array.append l.sample r.sample);
            cost = l.cost +. r.cost +. l.rows +. r.rows;
          }
    in
    entries := (node, e) :: !entries;
    e
  in
  let root = go plan in
  { entries = !entries; root }

let annotate t node =
  match find t node with
  | None -> ""
  | Some e -> Printf.sprintf " [est rows=%.0f cost=%.0f]" e.rows e.cost
