type time = int

type t = { ts : time; te : time }

exception Empty_interval of time * time

let make ts te = if ts < te then { ts; te } else raise (Empty_interval (ts, te))

let make_opt ts te = if ts < te then Some { ts; te } else None

let ts i = i.ts
let te i = i.te

let duration i = i.te - i.ts

let equal a b = a.ts = b.ts && a.te = b.te

let compare a b =
  let c = Int.compare a.ts b.ts in
  if c <> 0 then c else Int.compare a.te b.te

let compare_start a b = Int.compare a.ts b.ts
let compare_end a b = Int.compare a.te b.te

let contains i t = i.ts <= t && t < i.te

let covers outer inner = outer.ts <= inner.ts && inner.te <= outer.te

let overlaps a b = a.ts < b.te && b.ts < a.te

let intersect a b = make_opt (max a.ts b.ts) (min a.te b.te)

let hull a b = { ts = min a.ts b.ts; te = max a.te b.te }

let adjacent a b = a.te = b.ts || b.te = a.ts

let union_if_joinable a b =
  if overlaps a b || adjacent a b then Some (hull a b) else None

let minus a b =
  if not (overlaps a b) then [ a ]
  else
    let left = make_opt a.ts (min a.te b.ts)
    and right = make_opt (max a.ts b.te) a.te in
    List.filter_map Fun.id [ left; right ]

let before a b = a.te <= b.ts

let shift d i = { ts = i.ts + d; te = i.te + d }

let clamp ~within i = intersect within i

type allen =
  | Before
  | Meets
  | Overlaps
  | Starts
  | During
  | Finishes
  | Equals
  | Finished_by
  | Contains
  | Started_by
  | Overlapped_by
  | Met_by
  | After

let allen a b =
  if a.te < b.ts then Before
  else if a.te = b.ts then Meets
  else if b.te < a.ts then After
  else if b.te = a.ts then Met_by
  else if a.ts = b.ts && a.te = b.te then Equals
  else if a.ts = b.ts then if a.te < b.te then Starts else Started_by
  else if a.te = b.te then if a.ts > b.ts then Finishes else Finished_by
  else if b.ts < a.ts && a.te < b.te then During
  else if a.ts < b.ts && b.te < a.te then Contains
  else if a.ts < b.ts then Overlaps
  else Overlapped_by

let all_allen =
  [
    Before;
    Meets;
    Overlaps;
    Starts;
    During;
    Finishes;
    Equals;
    Finished_by;
    Contains;
    Started_by;
    Overlapped_by;
    Met_by;
    After;
  ]

let allen_inverse = function
  | Before -> After
  | After -> Before
  | Meets -> Met_by
  | Met_by -> Meets
  | Overlaps -> Overlapped_by
  | Overlapped_by -> Overlaps
  | Starts -> Started_by
  | Started_by -> Starts
  | During -> Contains
  | Contains -> During
  | Finishes -> Finished_by
  | Finished_by -> Finishes
  | Equals -> Equals

let allen_name = function
  | Before -> "before"
  | Meets -> "meets"
  | Overlaps -> "overlaps"
  | Starts -> "starts"
  | During -> "during"
  | Finishes -> "finishes"
  | Equals -> "equals"
  | Finished_by -> "finished_by"
  | Contains -> "contains"
  | Started_by -> "started_by"
  | Overlapped_by -> "overlapped_by"
  | Met_by -> "met_by"
  | After -> "after"

let allen_of_name s =
  match String.lowercase_ascii s with
  | "before" -> Some Before
  | "meets" -> Some Meets
  | "overlaps" -> Some Overlaps
  | "starts" -> Some Starts
  | "during" -> Some During
  | "finishes" -> Some Finishes
  | "equals" -> Some Equals
  | "finished_by" -> Some Finished_by
  | "contains" -> Some Contains
  | "started_by" -> Some Started_by
  | "overlapped_by" -> Some Overlapped_by
  | "met_by" -> Some Met_by
  | "after" -> Some After
  | _ -> None

(* Disjoint relations: allen a b = rel implies a and b share no time
   point, so such a pair never θ-matches at any snapshot. *)
let allen_disjoint = function
  | Before | Meets | Met_by | After -> true
  | Overlaps | Starts | During | Finishes | Equals | Finished_by | Contains
  | Started_by | Overlapped_by ->
      false

let points i =
  let rec loop t () = if t >= i.te then Seq.Nil else Seq.Cons (t, loop (t + 1)) in
  loop i.ts

let add_to_buffer buf i =
  Buffer.add_char buf '[';
  Tpdb_text.Numbers.add_int buf i.ts;
  Buffer.add_char buf ',';
  Tpdb_text.Numbers.add_int buf i.te;
  Buffer.add_char buf ')'

let to_string i =
  let buf = Buffer.create 16 in
  add_to_buffer buf i;
  Buffer.contents buf

let pp ppf i = Format.pp_print_string ppf (to_string i)

let of_string s =
  match Scanf.sscanf_opt s "[%d,%d)" (fun ts te -> (ts, te)) with
  | Some (ts, te) -> make ts te
  | None -> invalid_arg (Printf.sprintf "Interval.of_string: %S" s)
