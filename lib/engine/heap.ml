type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable items : 'a array;
  mutable size : int;
}

let create ~cmp () = { cmp; items = [||]; size = 0 }

let swap h i j =
  let tmp = h.items.(i) in
  h.items.(i) <- h.items.(j);
  h.items.(j) <- tmp

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp h.items.(i) h.items.(parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < h.size && h.cmp h.items.(left) h.items.(!smallest) < 0 then
    smallest := left;
  if right < h.size && h.cmp h.items.(right) h.items.(!smallest) < 0 then
    smallest := right;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h x =
  (* grows like [Flat.Vec]: never [Array.make] from a young [x] *)
  if h.size = Array.length h.items then
    h.items <- (if h.size = 0 then Array.make 8 x else Array.append h.items h.items);
  h.items.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.items.(0)

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.items.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.items.(0) <- h.items.(h.size);
      sift_down h 0
    end;
    Some top
  end

let is_empty h = h.size = 0
let size h = h.size
let clear h = h.size <- 0
