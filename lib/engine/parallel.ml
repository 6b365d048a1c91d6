let bucket_of ~partitions hash = (hash land max_int) mod partitions

let shard2 ~partitions ~left_key ~right_key left right =
  let partitions = max 1 partitions in
  let lbuckets = Array.make partitions []
  and rbuckets = Array.make partitions [] in
  let push buckets key item =
    let b = bucket_of ~partitions (key item) in
    buckets.(b) <- item :: buckets.(b)
  in
  List.iter (push lbuckets left_key) left;
  List.iter (push rbuckets right_key) right;
  Flat.Vec.of_list
    (List.init partitions (fun i ->
         (List.rev lbuckets.(i), List.rev rbuckets.(i))))

let map ~pool f arr = Flat.Vec.of_list (Pool.map pool f (Array.to_list arr))

(* A binary min-heap of partition indices, keyed on each partition's
   cursor element with ties broken on the lower index. That is a stable
   merge, so it yields exactly what folding [List.merge] over the
   partitions left to right yields ([List.merge] takes from the left
   list on ties, earlier partitions win) — but touches each element once
   per heap level instead of once per later partition. Since a group
   lives in exactly one partition, a group's elements (which compare
   equal, hence "tie") are never interleaved with another stream's.
   The inputs are read through cursors and the output is written into
   one array of the total length, so the merge allocates nothing per
   element. *)
let merge_grouped ?check ~compare_group streams =
  let k = Array.length streams in
  let total = Array.fold_left (fun n s -> n + Array.length s) 0 streams in
  (* every slot is overwritten below; [concat] only sizes the array
     without forcing a minor collection (see [Flat.Vec]) *)
  let out = Array.concat (Array.to_list streams) in
  let cursor = Array.make k 0 in
  let less i j =
    let c = compare_group streams.(i).(cursor.(i)) streams.(j).(cursor.(j)) in
    c < 0 || (c = 0 && i < j)
  in
  (* the heap holds the indices of non-exhausted streams only *)
  let heap = Array.make k 0 and size = ref 0 in
  Array.iteri
    (fun i s ->
      if Array.length s > 0 then begin
        heap.(!size) <- i;
        incr size
      end)
    streams;
  let rec sift_down at =
    let l = (2 * at) + 1 in
    if l < !size then begin
      let m = if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(m) heap.(at) then begin
        let top = heap.(at) in
        heap.(at) <- heap.(m);
        heap.(m) <- top;
        sift_down m
      end
    end
  in
  for at = (!size / 2) - 1 downto 0 do
    sift_down at
  done;
  let filled = ref 0 in
  while !size > 1 do
    let i = heap.(0) in
    let s = streams.(i) in
    out.(!filled) <- s.(cursor.(i));
    incr filled;
    cursor.(i) <- cursor.(i) + 1;
    if cursor.(i) = Array.length s then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down 0
  done;
  if !size = 1 then begin
    let i = heap.(0) in
    let rest = Array.length streams.(i) - cursor.(i) in
    Array.blit streams.(i) cursor.(i) out !filled rest
  end;
  (match check with
  | None -> ()
  | Some check ->
      for at = 0 to total - 2 do
        check out.(at) out.(at + 1)
      done);
  out

let equi_join ?check ~pool ~partitions ~left_key ~right_key ~sweep
    ~compare_group left right =
  shard2 ~partitions ~left_key ~right_key left right
  |> map ~pool (fun (l, r) -> Flat.Vec.of_list (sweep l r))
  |> merge_grouped ?check ~compare_group
  |> Array.to_list
