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
  Array.init partitions (fun i ->
      (List.rev lbuckets.(i), List.rev rbuckets.(i)))

let map ~pool f arr = Array.of_list (Pool.map pool f (Array.to_list arr))

(* A binary min-heap of partition indices, keyed on each partition's
   head with ties broken on the lower index. That is a stable merge, so
   it yields exactly what folding [List.merge] over the partitions left
   to right yields ([List.merge] takes from the left list on ties,
   earlier partitions win) — but touches each element once per heap
   level instead of once per later partition. Since a group lives in
   exactly one partition, a group's elements (which compare equal, hence
   "tie") are never interleaved with another list's. *)
let merge_grouped ?check ~compare_group streams =
  let heads = Array.copy streams in
  (* the heap holds the indices of non-empty streams only *)
  let less i j =
    let c = compare_group (List.hd heads.(i)) (List.hd heads.(j)) in
    c < 0 || (c = 0 && i < j)
  in
  let heap = Array.make (Array.length streams) 0 and size = ref 0 in
  Array.iteri
    (fun i -> function
      | [] -> ()
      | _ :: _ ->
          heap.(!size) <- i;
          incr size)
    streams;
  let rec sift_down k =
    let l = (2 * k) + 1 in
    if l < !size then begin
      let m = if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(m) heap.(k) then begin
        let top = heap.(k) in
        heap.(k) <- heap.(m);
        heap.(m) <- top;
        sift_down m
      end
    end
  in
  for k = (!size / 2) - 1 downto 0 do
    sift_down k
  done;
  let rec drain acc =
    if !size = 0 then List.rev acc
    else if !size = 1 then List.rev_append acc heads.(heap.(0))
    else
      let i = heap.(0) in
      match heads.(i) with
      | [] -> assert false
      | x :: rest ->
          heads.(i) <- rest;
          (match rest with
          | [] ->
              decr size;
              heap.(0) <- heap.(!size)
          | _ :: _ -> ());
          sift_down 0;
          drain (x :: acc)
  in
  let merged = drain [] in
  (match check with
  | None -> ()
  | Some check ->
      let rec pairwise = function
        | a :: (b :: _ as rest) ->
            check a b;
            pairwise rest
        | [ _ ] | [] -> ()
      in
      pairwise merged);
  merged

let equi_join ?check ~pool ~partitions ~left_key ~right_key ~sweep
    ~compare_group left right =
  shard2 ~partitions ~left_key ~right_key left right
  |> map ~pool (fun (l, r) -> sweep l r)
  |> merge_grouped ?check ~compare_group
