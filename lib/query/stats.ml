module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Value = Tpdb_relation.Value
module Fact = Tpdb_relation.Fact
module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var

let buckets = 16
let sample_size = 256

type detail = {
  distinct : int array;
  tmin : int;
  tmax : int;
  mean_span : float;
  start_hist : int array;
  end_hist : int array;
  sample : (int * int) array;
  p_min : float;
  p_max : float;
  p_mean : float;
}

type t = {
  relation : string;
  cardinality : int;
  duplicate_free : bool;
  lineage_safe : bool;
  detail : detail Once.t;
}

let detail t = Once.force t.detail

(* Distinct count by explicit sort on [Value.compare] — the polymorphic
   compare is banned on values (see the poly-compare lint), and values
   of mixed numeric constructors must compare numerically anyway. *)
let distinct_count values =
  let sorted = List.sort Value.compare values in
  let rec count n = function
    | [] -> n
    | [ _ ] -> n + 1
    | a :: (b :: _ as rest) ->
        count (if Value.compare a b = 0 then n else n + 1) rest
  in
  count 0 sorted

(* Every lineage a bare variable, no variable twice: the base-relation
   shape the safe-plan rule builds on. *)
let lineage_safe r =
  let seen = Hashtbl.create (Relation.cardinality r) in
  match
    Relation.iter
      (fun tp ->
        match Formula.view (Tuple.lineage tp) with
        | Var v when not (Hashtbl.mem seen v) -> Hashtbl.add seen v ()
        | Var _ | True | False | Not _ | And _ | Or _ -> raise_notrace Exit)
      r
  with
  | () -> true
  | exception Exit -> false

let bucket_of ~tmin ~tmax x =
  if tmax <= tmin then 0
  else
    let b = (x - tmin) * buckets / (tmax - tmin) in
    if b < 0 then 0 else if b >= buckets then buckets - 1 else b

let hull r =
  match Relation.active_domain r with
  | Some hull -> (Interval.ts hull, Interval.te hull)
  | None -> (0, 0)

(* Everything but the cardinality and the safety flags: the (fact,
   start) sort, a sort per column for its distinct count, the
   histograms, the sample and the probability moments. Only cost
   estimation reads these, so they wait until it does. *)
let detail_of r =
  let tuples = Relation.sorted_by_fact_start r in
  let n = List.length tuples in
  let arity = Tpdb_relation.Schema.arity (Relation.schema r) in
  let distinct =
    Array.init arity (fun col ->
        distinct_count (List.map (fun tp -> Fact.get (Tuple.fact tp) col) tuples))
  in
  let tmin, tmax = hull r in
  let start_hist = Array.make buckets 0 in
  let end_hist = Array.make buckets 0 in
  let span_sum = ref 0 in
  List.iter
    (fun tp ->
      let iv = Tuple.iv tp in
      span_sum := !span_sum + Interval.duration iv;
      let bs = bucket_of ~tmin ~tmax (Interval.ts iv) in
      let be = bucket_of ~tmin ~tmax (Interval.te iv - 1) in
      start_hist.(bs) <- start_hist.(bs) + 1;
      end_hist.(be) <- end_hist.(be) + 1)
    tuples;
  (* Systematic sample: every k-th tuple in (fact, start) order —
     deterministic, no RNG, and spread over the whole relation. *)
  let stride = if n <= sample_size then 1 else (n + sample_size - 1) / sample_size in
  let sample =
    List.filteri (fun i _ -> i mod stride = 0) tuples
    |> List.map (fun tp ->
           let iv = Tuple.iv tp in
           (Interval.ts iv, Interval.te iv))
    |> Array.of_list
  in
  let p_min, p_max, p_sum =
    List.fold_left
      (fun (mn, mx, sum) tp ->
        let p = Tuple.p tp in
        (Float.min mn p, Float.max mx p, sum +. p))
      (1.0, 0.0, 0.0) tuples
  in
  {
    distinct;
    tmin;
    tmax;
    mean_span = (if n = 0 then 0.0 else float_of_int !span_sum /. float_of_int n);
    start_hist;
    end_hist;
    sample;
    p_min = (if n = 0 then 0.0 else p_min);
    p_max = (if n = 0 then 0.0 else p_max);
    p_mean = (if n = 0 then 0.0 else p_sum /. float_of_int n);
  }

let of_relation r =
  {
    relation = Relation.name r;
    cardinality = Relation.cardinality r;
    duplicate_free = Relation.is_duplicate_free r;
    lineage_safe = lineage_safe r;
    detail = Once.make (fun () -> detail_of r);
  }

(* The safe-plan rule routes probability computation around the runtime
   read-once check on the word of [duplicate_free]/[lineage_safe], so
   they must describe the data as loaded, never as it was when a stats
   file was written: recompute both from the live relation. *)
let refresh_safety t r =
  {
    t with
    duplicate_free = Relation.is_duplicate_free r;
    lineage_safe = lineage_safe r;
  }

(* Cheap staleness test of persisted stats against live data: the
   cardinality and temporal hull must agree. Agreement does not prove
   the file current — it gates only the advisory cost fields; the
   safety flags go through [refresh_safety] regardless. *)
let describes t r =
  let d = detail t and tmin, tmax = hull r in
  t.cardinality = Relation.cardinality r && d.tmin = tmin && d.tmax = tmax

(* {2 Persistence}

   A line-oriented text format — trivially parseable without a JSON
   reader, diffable, and stable across runs (all fields are computed
   deterministically). *)

let version = 1

let ints_to_line a =
  String.concat " " (Array.to_list (Array.map string_of_int a))

let save t path =
  let d = detail t in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let p fmt = Printf.fprintf oc fmt in
      p "tpdb-stats %d\n" version;
      p "relation %s\n" t.relation;
      p "cardinality %d\n" t.cardinality;
      p "distinct %s\n" (ints_to_line d.distinct);
      p "tmin %d\n" d.tmin;
      p "tmax %d\n" d.tmax;
      p "mean_span %.17g\n" d.mean_span;
      p "start_hist %s\n" (ints_to_line d.start_hist);
      p "end_hist %s\n" (ints_to_line d.end_hist);
      p "p_min %.17g\n" d.p_min;
      p "p_max %.17g\n" d.p_max;
      p "p_mean %.17g\n" d.p_mean;
      p "duplicate_free %b\n" t.duplicate_free;
      p "lineage_safe %b\n" t.lineage_safe;
      p "sample %d\n" (Array.length d.sample);
      Array.iter (fun (ts, te) -> p "%d %d\n" ts te) d.sample)

exception Malformed of string

let load path =
  let parse lines =
    let lines = ref lines in
    let next () =
      match !lines with
      | [] -> raise (Malformed "unexpected end of file")
      | l :: rest ->
          lines := rest;
          l
    in
    let field name =
      let l = next () in
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = name ->
          String.sub l (i + 1) (String.length l - i - 1)
      | Some _ | None -> raise (Malformed (Printf.sprintf "expected %s line" name))
    in
    let int name =
      let v = field name in
      match int_of_string_opt v with
      | Some i -> i
      | None -> raise (Malformed (Printf.sprintf "%s: not an integer" name))
    in
    let flt name =
      let v = field name in
      match float_of_string_opt v with
      | Some f -> f
      | None -> raise (Malformed (Printf.sprintf "%s: not a float" name))
    in
    let boolean name =
      let v = field name in
      match bool_of_string_opt v with
      | Some b -> b
      | None -> raise (Malformed (Printf.sprintf "%s: not a boolean" name))
    in
    let ints name =
      let v = field name in
      if v = "" then [||]
      else
        String.split_on_char ' ' v
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some i -> i
               | None -> raise (Malformed (Printf.sprintf "%s: not integers" name)))
        |> Array.of_list
    in
    let v = int "tpdb-stats" in
    if v <> version then
      raise (Malformed (Printf.sprintf "unsupported stats version %d" v));
    let relation = field "relation" in
    let cardinality = int "cardinality" in
    let distinct = ints "distinct" in
    let tmin = int "tmin" in
    let tmax = int "tmax" in
    let mean_span = flt "mean_span" in
    let start_hist = ints "start_hist" in
    let end_hist = ints "end_hist" in
    if Array.length start_hist <> buckets || Array.length end_hist <> buckets
    then raise (Malformed "histogram bucket count mismatch");
    let p_min = flt "p_min" in
    let p_max = flt "p_max" in
    let p_mean = flt "p_mean" in
    let duplicate_free = boolean "duplicate_free" in
    let lineage_safe = boolean "lineage_safe" in
    let n_sample = int "sample" in
    let sample =
      Array.init n_sample (fun _ ->
          let l = next () in
          match String.split_on_char ' ' l with
          | [ a; b ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some ts, Some te -> (ts, te)
              | _ -> raise (Malformed "sample: not an interval"))
          | _ -> raise (Malformed "sample: not an interval"))
    in
    {
      relation;
      cardinality;
      duplicate_free;
      lineage_safe;
      detail =
        Once.of_value
          {
            distinct;
            tmin;
            tmax;
            mean_span;
            start_hist;
            end_hist;
            sample;
            p_min;
            p_max;
            p_mean;
          };
    }
  in
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec read acc =
          match input_line ic with
          | line -> read (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        parse (read []))
  with
  | t -> Ok t
  | exception Sys_error msg -> Error msg
  | exception Malformed msg -> Error (Printf.sprintf "%s: %s" path msg)

let file ~dir name = Filename.concat dir (name ^ ".stats")

let to_string t =
  let d = detail t in
  let b = Buffer.create 256 in
  let p fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  p "relation %s: %d tuple(s)\n" t.relation t.cardinality;
  p "  temporal hull [%d,%d), mean span %.2f\n" d.tmin d.tmax d.mean_span;
  p "  distinct per column: %s\n" (ints_to_line d.distinct);
  p "  probability min %.3f max %.3f mean %.3f\n" d.p_min d.p_max d.p_mean;
  p "  duplicate-free %b, lineage-safe %b, sample %d interval(s)"
    t.duplicate_free t.lineage_safe (Array.length d.sample);
  Buffer.contents b
