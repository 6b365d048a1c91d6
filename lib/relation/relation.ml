module Interval = Tpdb_interval.Interval
module Timeline = Tpdb_interval.Timeline
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var
module Prob = Tpdb_lineage.Prob

type t = { schema : Schema.t; tuples : Tuple.t array }

let check_arity schema tp =
  if Fact.arity (Tuple.fact tp) <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Relation.of_tuples: arity %d tuple in schema %s"
         (Fact.arity (Tuple.fact tp))
         (Schema.name schema))

(* Arrays of tuples start from [Tuple.placeholder], so a large one does
   not force a minor collection (see [Flat.Vec]). *)
let array_of_list tuples =
  let a = Array.make (List.length tuples) Tuple.placeholder in
  List.iteri (fun i tp -> a.(i) <- tp) tuples;
  a

let of_tuples schema tuples =
  List.iter (check_arity schema) tuples;
  { schema; tuples = array_of_list tuples }

let of_array schema tuples =
  Array.iter (check_arity schema) tuples;
  { schema; tuples }

let of_rows ~name ~columns ?tag rows =
  let tag = Option.value tag ~default:name in
  let schema = Schema.make ~name columns in
  let tuples =
    List.mapi
      (fun i (values, iv, p) ->
        let fact = Fact.of_strings values in
        let lineage = Formula.var (Var.make tag (i + 1)) in
        Tuple.make ~fact ~lineage ~iv ~p)
      rows
  in
  of_tuples schema tuples

let schema r = r.schema
let name r = Schema.name r.schema
let cardinality r = Array.length r.tuples
let tuples r = Array.to_list r.tuples
let to_seq r = Array.to_seq r.tuples
let iter f r = Array.iter f r.tuples
let to_array r = Array.copy r.tuples

let prob_env relations =
  let table =
    Hashtbl.create
      (List.fold_left (fun n r -> n + Array.length r.tuples) 0 relations)
  in
  List.iter
    (fun r ->
      Array.iter
        (fun tp ->
          match Formula.view (Tuple.lineage tp) with
          | Formula.Var v -> Hashtbl.replace table v (Tuple.p tp)
          | _ -> ())
        r.tuples)
    relations;
  fun v ->
    match Hashtbl.find_opt table v with
    | Some p -> p
    | None -> raise (Tpdb_lineage.Prob.Unbound_variable v)

(* Tuples are chained by fact hash in int arrays — an open-addressing
   table of chain heads over [next] links — so the check allocates
   nothing per tuple; only tuples of one chain are compared, each pair
   once. *)
let is_duplicate_free r =
  let tuples = r.tuples in
  let n = Array.length tuples in
  let hashes = Array.map (fun tp -> Fact.hash (Tuple.fact tp)) tuples in
  let next = Array.make n (-1) in
  let size =
    let rec grow s = if s >= 2 * n then s else grow (2 * s) in
    grow 16
  in
  let mask = size - 1 in
  (* slot content: 1 + index of the chain's latest tuple, 0 when empty *)
  let slots = Array.make size 0 in
  for i = 0 to n - 1 do
    let h = hashes.(i) in
    let pos = ref (h land mask) in
    while slots.(!pos) <> 0 && hashes.(slots.(!pos) - 1) <> h do
      pos := (!pos + 1) land mask
    done;
    if slots.(!pos) <> 0 then next.(i) <- slots.(!pos) - 1;
    slots.(!pos) <- i + 1
  done;
  let clash i j =
    let a = tuples.(i) and b = tuples.(j) in
    a != b
    && Fact.equal (Tuple.fact a) (Tuple.fact b)
    && Interval.overlaps (Tuple.iv a) (Tuple.iv b)
  in
  let rec chain_free i j = j < 0 || ((not (clash i j)) && chain_free i next.(j)) in
  let rec from i = i >= n || (chain_free i next.(i) && from (i + 1)) in
  from 0

let active_domain r =
  Timeline.span (Array.to_list (Array.map Tuple.iv r.tuples))

let sorted_by_fact_start r =
  List.sort Tuple.compare_fact_start (tuples r)

let coalesce r =
  (* Group by (fact, normalized lineage), then merge joinable intervals. *)
  let groups = Group_key.create (Array.length r.tuples) in
  let order = ref [] in
  Array.iter
    (fun tp ->
      let key =
        ( Tuple.fact tp,
          Formula.normalize (Tuple.lineage tp) )
      in
      (match Group_key.find_opt groups key with
      | Some existing -> Group_key.replace groups key (tp :: existing)
      | None ->
          order := key :: !order;
          Group_key.add groups key [ tp ]))
    r.tuples;
  let merged =
    List.concat_map
      (fun key ->
        let group = List.rev (Group_key.find groups key) in
        let fact, lineage = key in
        let p = Tuple.p (List.hd group) in
        Timeline.coalesce (List.map Tuple.iv group)
        |> List.map (fun iv -> Tuple.make ~fact ~lineage ~iv ~p))
      (List.rev !order)
  in
  { r with tuples = array_of_list merged }

let same_columns a b =
  List.length (Schema.columns a.schema) = List.length (Schema.columns b.schema)
  && List.for_all2 String.equal (Schema.columns a.schema) (Schema.columns b.schema)

let equal_as_sets a b =
  same_columns a b
  &&
  let canon r =
    List.sort_uniq
      (fun x y ->
        let c = Tuple.compare_fact_start x y in
        if c <> 0 then c
        else if Tuple.equal x y then 0
        else Float.compare (Tuple.p x) (Tuple.p y))
      (List.map
         (fun tp ->
           Tuple.make ~fact:(Tuple.fact tp)
             ~lineage:(Formula.normalize (Tuple.lineage tp))
             ~iv:(Tuple.iv tp) ~p:(Tuple.p tp))
         (tuples r))
  in
  let ta = canon a and tb = canon b in
  List.length ta = List.length tb && List.for_all2 Tuple.equal ta tb

(* [r] with each tuple replaced by [f tp], dropped where that is [None]. *)
let filter_map f r =
  let out = Array.make (Array.length r.tuples) Tuple.placeholder and n = ref 0 in
  Array.iter
    (fun tp ->
      match f tp with
      | Some tp ->
          out.(!n) <- tp;
          incr n
      | None -> ())
    r.tuples;
  { r with tuples = (if !n = Array.length out then out else Array.sub out 0 !n) }

let timeslice window r =
  filter_map
    (fun tp ->
      Interval.clamp ~within:window (Tuple.iv tp)
      |> Option.map (fun iv ->
             Tuple.make ~fact:(Tuple.fact tp) ~lineage:(Tuple.lineage tp) ~iv
               ~p:(Tuple.p tp)))
    r

let snapshot_at t r = timeslice (Interval.make t (t + 1)) r

let filter keep r = filter_map (fun tp -> if keep tp then Some tp else None) r
let map_tuples f r = filter_map (fun tp -> Some (f tp)) r

let union_all a b =
  if not (same_columns a b) then
    invalid_arg "Relation.union_all: incompatible schemas";
  { a with tuples = Array.append a.tuples b.tuples }

(* --- rendering ---

   One set of writers produces the table text for [to_string], [pp] and
   [print]: every line is appended to a caller's buffer with no
   per-row allocation beyond the probability's one float conversion.
   The large outputs (outer joins multiply their inputs) reach a
   formatter or channel in bounded chunks, so no path holds a second
   whole-result copy besides the one its caller asked for.

   A formatter takes each chunk as a string. Chunks stay under the
   minor heap's 2 KiB object limit, so those strings die young; 64 KiB
   chunks went to the major heap and raised a one-shot query's peak RSS
   by about 0.5 MB. *)

let chunk_bytes = 1536

let add_title buf r =
  Buffer.add_string buf (Schema.name r.schema);
  Buffer.add_string buf " (";
  Tpdb_text.Numbers.add_int buf (Array.length r.tuples);
  Buffer.add_string buf " tuples)"

let add_row buf (tp : Tuple.t) =
  let fact = tp.fact in
  for i = 0 to Array.length fact - 1 do
    if i > 0 then Buffer.add_string buf " | ";
    Value.add_to_buffer buf fact.(i)
  done;
  Buffer.add_string buf " | ";
  Formula.add_to_buffer buf tp.lineage;
  Buffer.add_string buf " | ";
  Interval.add_to_buffer buf tp.iv;
  Buffer.add_string buf " | ";
  Tpdb_text.Numbers.add_g4 buf tp.p

(* The column line, then each row preceded by its newline: the text
   after the title line, minus the final newline. [flush] is handed the
   buffer whenever it holds a chunk and must empty it. *)
let add_body buf r ~flush =
  List.iteri
    (fun i col ->
      if i > 0 then Buffer.add_string buf " | ";
      Buffer.add_string buf col)
    (Schema.columns r.schema);
  Buffer.add_string buf " | lineage | T | p";
  Array.iter
    (fun tp ->
      if Buffer.length buf >= chunk_bytes then flush buf;
      Buffer.add_char buf '\n';
      add_row buf tp)
    r.tuples

let add_table buf r ~flush =
  add_title buf r;
  Buffer.add_char buf '\n';
  add_body buf r ~flush;
  Buffer.add_char buf '\n'

let to_string r =
  let buf = Buffer.create 4096 in
  add_table buf r ~flush:ignore;
  Buffer.contents buf

(* The title line and the last line end as [@.] does: it closes the
   caller's open boxes, prints the newline and resets the formatter. So
   the title lands in the caller's boxes, and the formatter is left,
   just as when every line ended in [@.]; the lines between reach it as
   one string per chunk. *)
let pp ppf r =
  let buf = Buffer.create 4096 in
  let flush buf =
    Format.pp_print_string ppf (Buffer.contents buf);
    Buffer.clear buf
  in
  add_title buf r;
  flush buf;
  Format.pp_print_newline ppf ();
  add_body buf r ~flush;
  flush buf;
  Format.pp_print_newline ppf ()

let print r =
  (* whatever is pending on [Format.std_formatter] goes out first *)
  Format.pp_print_flush Format.std_formatter ();
  let buf = Buffer.create 4096 in
  let flush buf =
    Buffer.output_buffer stdout buf;
    Buffer.clear buf
  in
  add_table buf r ~flush;
  flush buf;
  Stdlib.flush stdout
