module Interval = Tpdb_interval.Interval

(* Implicit binary tree over [items] sorted by start: the root of the
   subtree for [lo, hi) is the middle index, so the array itself is the
   tree. [max_end.(i)] is the maximum end point in i's subtree, which
   prunes whole subtrees during queries. *)
type 'a t = {
  items : 'a array;
  spans : Interval.t array;
  max_end : int array;
  key : 'a -> Interval.t;
}

let size t = Array.length t.items

let build key items =
  let sorted = List.stable_sort (fun a b -> Interval.compare (key a) (key b)) items in
  let items = Flat.Vec.of_list sorted and spans = Flat.Vec.of_list (List.map key sorted) in
  let n = Array.length items in
  let max_end = Array.make n min_int in
  let rec annotate lo hi =
    if lo >= hi then min_int
    else begin
      let mid = (lo + hi) / 2 in
      let here = Interval.te spans.(mid) in
      let left = annotate lo mid in
      let right = annotate (mid + 1) hi in
      let m = max here (max left right) in
      max_end.(mid) <- m;
      m
    end
  in
  ignore (annotate 0 n);
  { items; spans; max_end; key }

let overlapping t query =
  let n = Array.length t.items in
  let acc = ref [] in
  (* Visit right-to-left so the accumulated list ends up start-ordered. *)
  let rec visit lo hi =
    if lo < hi then begin
      let mid = (lo + hi) / 2 in
      (* Prune: nothing in this subtree ends after the query starts. *)
      if t.max_end.(mid) > Interval.ts query then begin
        (* Right subtree only matters when its starts can precede the
           query's end. *)
        if mid + 1 < hi && Interval.ts t.spans.(mid + 1) < Interval.te query
        then visit (mid + 1) hi;
        if Interval.overlaps t.spans.(mid) query then
          acc := t.items.(mid) :: !acc;
        visit lo mid
      end
    end
  in
  visit 0 n;
  !acc

let stabbing t time = overlapping t (Interval.make time (time + 1))

let fold f init t = Array.fold_left f init t.items
