module Interval = Tpdb_interval.Interval

(* Growable int buffer: the building block of the flat sweep core's
   reusable scratch space. Never shrinks, so a steady-state sweep does
   not allocate per probe. *)
module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 64) () =
    { data = Array.make (max 1 capacity) 0; len = 0 }

  let clear b = b.len <- 0
  let length b = b.len

  let ensure b n =
    if n > Array.length b.data then begin
      let cap = ref (max 64 (Array.length b.data)) in
      while n > !cap do
        cap := !cap * 2
      done;
      let data = Array.make !cap 0 in
      Array.blit b.data 0 data 0 b.len;
      b.data <- data
    end

  let push b v =
    ensure b (b.len + 1);
    b.data.(b.len) <- v;
    b.len <- b.len + 1

  let get b i = b.data.(i)
  let set b i v = b.data.(i) <- v
  let truncate b n = if n < b.len then b.len <- max 0 n

  (* In-place sort of the live prefix under an index comparator:
     insertion sort below a small cutoff, median-of-3 quicksort above.
     Used to order probe matches without allocating a fresh array. *)
  let sort b cmp =
    let a = b.data in
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    let insertion lo hi =
      for i = lo + 1 to hi do
        let v = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && cmp a.(!j) v > 0 do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done
    in
    let rec qsort lo hi =
      if hi - lo < 16 then insertion lo hi
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if cmp a.(mid) a.(lo) < 0 then swap mid lo;
        if cmp a.(hi) a.(lo) < 0 then swap hi lo;
        if cmp a.(hi) a.(mid) < 0 then swap hi mid;
        let pivot = a.(mid) in
        swap mid (hi - 1);
        let i = ref lo and j = ref (hi - 1) in
        (try
           while true do
             incr i;
             while cmp a.(!i) pivot < 0 do
               incr i
             done;
             decr j;
             while cmp pivot a.(!j) < 0 do
               decr j
             done;
             if !i >= !j then raise Exit;
             swap !i !j
           done
         with Exit -> ());
        swap !i (hi - 1);
        qsort lo (!i - 1);
        qsort (!i + 1) hi
      end
    in
    if b.len > 1 then qsort 0 (b.len - 1)
end

(* Growable array of boxed values: the output buffer of a sweep. The
   first element pushed fills the spare capacity, so no dummy is needed. *)
module Vec = struct
  type 'a t = { mutable items : 'a array; mutable len : int }

  let create () = { items = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.items then begin
      let items = Array.make (max 256 (2 * v.len)) x in
      Array.blit v.items 0 items 0 v.len;
      v.items <- items
    end;
    v.items.(v.len) <- x;
    v.len <- v.len + 1

  let contents v =
    if v.len = Array.length v.items then v.items else Array.sub v.items 0 v.len
end

(* The flat struct-of-arrays interval index: start and end points of a
   start-sorted run of intervals, unboxed into two int arrays that the
   sweep kernels walk with plain index arithmetic. The payload (tuples,
   lineages, …) stays with the caller in parallel arrays. *)

type t = { ts : int array; te : int array; len : int }

let length t = t.len
let ts t i = t.ts.(i)
let te t i = t.te.(i)
let starts t = t.ts
let ends t = t.te

let of_sorted iv arr =
  let n = Array.length arr in
  let ts = Array.make (max 1 n) 0 and te = Array.make (max 1 n) 0 in
  for i = 0 to n - 1 do
    let v = iv arr.(i) in
    ts.(i) <- Interval.ts v;
    te.(i) <- Interval.te v
  done;
  for i = 1 to n - 1 do
    if ts.(i - 1) > ts.(i) then
      invalid_arg "Flat.of_sorted: intervals not sorted by start"
  done;
  { ts; te; len = n }

(* First index with ts >= x (lower bound on the start array). *)
let lower_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ts.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index with ts > x. *)
let upper_bound t x =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.ts.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

type temporal = [ `Overlap | `Allen of Interval.allen ]

(* The window-producing probe kernel: candidate index range by start
   point for a probe interval [rts, rte). The range is the tightest
   contiguous start-array slice containing every s interval that (a)
   stands in the requested temporal relation to the probe AND (b) shares
   a time point with it — condition (b) because only co-valid pairs form
   overlapping windows. Disjoint Allen relations therefore probe an
   empty range. The remaining per-element condition is a predicate on
   the end point alone: {!end_matches}. *)
let window_range t rel ~rts ~rte =
  match rel with
  | `Overlap -> (0, lower_bound t rte)
  | `Allen Interval.Equals
  | `Allen Interval.Starts
  | `Allen Interval.Started_by ->
      (lower_bound t rts, upper_bound t rts)
  | `Allen Interval.During
  | `Allen Interval.Finishes
  | `Allen Interval.Overlapped_by ->
      (0, lower_bound t rts)
  | `Allen Interval.Contains
  | `Allen Interval.Finished_by
  | `Allen Interval.Overlaps ->
      (upper_bound t rts, lower_bound t rte)
  | `Allen (Interval.Before | Interval.Meets | Interval.Met_by | Interval.After)
    ->
      (0, 0)

(* The end-point predicate completing {!window_range}: with s.ts inside
   the range, [allen probe s = rel ∧ overlaps probe s] iff the s end
   point satisfies this. *)
let end_matches rel ~rts ~rte tev =
  match rel with
  | `Overlap -> tev > rts
  | `Allen Interval.Equals -> tev = rte
  | `Allen Interval.Starts -> tev > rte
  | `Allen Interval.Started_by -> tev < rte
  | `Allen Interval.During -> tev > rte
  | `Allen Interval.Contains -> tev < rte
  | `Allen Interval.Overlaps -> tev > rte
  | `Allen Interval.Overlapped_by -> tev > rts && tev < rte
  | `Allen Interval.Finishes -> tev = rte
  | `Allen Interval.Finished_by -> tev = rte
  | `Allen (Interval.Before | Interval.Meets | Interval.Met_by | Interval.After)
    ->
      false
