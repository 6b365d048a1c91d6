module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var
module Value = Tpdb_relation.Value
module Fact = Tpdb_relation.Fact
module Schema = Tpdb_relation.Schema
module Tuple = Tpdb_relation.Tuple
module Relation = Tpdb_relation.Relation
module Csv = Tpdb_relation.Csv

(* A document given as its lines, without a final newline. *)
let csv_of_lines ~name ?path lines =
  Csv.of_string ~name ?path (String.concat "\n" lines)

let iv = Interval.make

(* --- Value --- *)

let test_value () =
  Alcotest.(check bool) "int/float equal" true (Value.equal (Value.I 2) (Value.F 2.0));
  Alcotest.(check bool) "null equals null" true (Value.equal Value.Null Value.Null);
  Alcotest.(check bool) "null below others" true
    (Value.compare Value.Null (Value.I 0) < 0);
  Alcotest.(check bool) "numeric order crosses kinds" true
    (Value.compare (Value.I 2) (Value.F 2.5) < 0);
  Alcotest.(check int) "hash consistent with equal"
    (Value.hash (Value.I 2)) (Value.hash (Value.F 2.0));
  Alcotest.(check string) "null prints dash" "-" (Value.to_string Value.Null);
  Alcotest.(check bool) "guess int" true
    (Value.equal (Value.I 42) (Value.of_string_guess "42"));
  Alcotest.(check bool) "guess float" true
    (Value.equal (Value.F 1.5) (Value.of_string_guess "1.5"));
  Alcotest.(check bool) "guess null" true
    (Value.equal Value.Null (Value.of_string_guess "-"));
  Alcotest.(check bool) "guess string" true
    (Value.equal (Value.S "zurich") (Value.of_string_guess "zurich"))

let test_fact () =
  let fact = Fact.of_strings [ "Ann"; "7"; "-" ] in
  Alcotest.(check int) "arity" 3 (Fact.arity fact);
  Alcotest.(check bool) "typed parse" true
    (Value.equal (Value.I 7) (Fact.get fact 1));
  Alcotest.(check bool) "null parse" true (Value.is_null (Fact.get fact 2));
  (match Fact.get fact 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range get accepted");
  Alcotest.(check bool) "concat + project inverse" true
    (Fact.equal fact
       (Fact.project [ 0; 1; 2 ] (Fact.concat fact (Fact.nulls 2))));
  Alcotest.(check string) "to_string" "Ann, 7, -" (Fact.to_string fact)

let test_schema () =
  let s = Schema.make ~name:"a" [ "Name"; "Loc" ] in
  Alcotest.(check (option int)) "index" (Some 1) (Schema.column_index s "Loc");
  Alcotest.(check (option int)) "missing" None (Schema.column_index s "Hotel");
  (match Schema.make ~name:"bad" [ "X"; "X" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate columns accepted");
  let t = Schema.make ~name:"b" [ "Hotel"; "Loc" ] in
  Alcotest.(check (list string))
    "join qualifies clashes"
    [ "Name"; "a.Loc"; "Hotel"; "b.Loc" ]
    (Schema.columns (Schema.join s t))

let test_tuple () =
  (match
     Tuple.make ~fact:(Fact.of_strings [ "x" ]) ~lineage:Formula.true_
       ~iv:(iv 0 1) ~p:1.5
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "p > 1 accepted");
  let tp =
    Tuple.make ~fact:(Fact.of_strings [ "x" ])
      ~lineage:(Formula.of_string "a1") ~iv:(iv 2 5) ~p:0.7
  in
  Alcotest.(check bool) "valid_at" true (Tuple.valid_at tp 4);
  Alcotest.(check bool) "not valid at te" false (Tuple.valid_at tp 5);
  Alcotest.(check string) "render" "('x', a1, [2,5), 0.7)" (Tuple.to_string tp)

(* --- Relation --- *)

let sample () =
  Relation.of_rows ~name:"r" ~columns:[ "K" ]
    [
      ([ "x" ], iv 1 4, 0.5);
      ([ "x" ], iv 6 9, 0.6);
      ([ "y" ], iv 2 5, 0.7);
    ]

let test_of_rows_lineage () =
  let r = sample () in
  Alcotest.(check int) "cardinality" 3 (Relation.cardinality r);
  let lineages =
    List.map (fun tp -> Formula.to_string_ascii (Tuple.lineage tp)) (Relation.tuples r)
  in
  Alcotest.(check (list string)) "fresh vars" [ "r1"; "r2"; "r3" ] lineages;
  let env = Relation.prob_env [ r ] in
  Alcotest.(check (float 1e-9)) "env binds p" 0.6 (env (Var.make "r" 2));
  (match env (Var.make "r" 9) with
  | exception Tpdb_lineage.Prob.Unbound_variable v ->
      Alcotest.(check string) "names the variable" "r9" (Var.to_string v)
  | _ -> Alcotest.fail "unknown var bound")

let test_duplicate_free () =
  Alcotest.(check bool) "disjoint same fact ok" true
    (Relation.is_duplicate_free (sample ()));
  let dup =
    Relation.of_rows ~name:"d" ~columns:[ "K" ]
      [ ([ "x" ], iv 1 5, 0.5); ([ "x" ], iv 4 8, 0.5) ]
  in
  Alcotest.(check bool) "overlapping same fact rejected" false
    (Relation.is_duplicate_free dup)

let test_arity_mismatch () =
  let schema = Schema.make ~name:"z" [ "A"; "B" ] in
  match
    Relation.of_tuples schema
      [
        Tuple.make ~fact:(Fact.of_strings [ "only-one" ])
          ~lineage:Formula.true_ ~iv:(iv 0 1) ~p:1.0;
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

let test_coalesce () =
  let pieces =
    Relation.of_tuples
      (Schema.make ~name:"c" [ "K" ])
      [
        Tuple.make ~fact:(Fact.of_strings [ "x" ])
          ~lineage:(Formula.of_string "a1") ~iv:(iv 1 3) ~p:0.5;
        Tuple.make ~fact:(Fact.of_strings [ "x" ])
          ~lineage:(Formula.of_string "a1") ~iv:(iv 3 6) ~p:0.5;
        Tuple.make ~fact:(Fact.of_strings [ "x" ])
          ~lineage:(Formula.of_string "a2") ~iv:(iv 6 8) ~p:0.5;
      ]
  in
  let merged = Relation.coalesce pieces in
  Alcotest.(check int) "adjacent same lineage merged" 2
    (Relation.cardinality merged);
  let expected =
    Relation.of_tuples
      (Schema.make ~name:"c" [ "K" ])
      [
        Tuple.make ~fact:(Fact.of_strings [ "x" ])
          ~lineage:(Formula.of_string "a1") ~iv:(iv 1 6) ~p:0.5;
        Tuple.make ~fact:(Fact.of_strings [ "x" ])
          ~lineage:(Formula.of_string "a2") ~iv:(iv 6 8) ~p:0.5;
      ]
  in
  Alcotest.(check bool) "exact merge" true (Relation.equal_as_sets expected merged)

let test_equal_as_sets () =
  let r = sample () in
  let shuffled =
    Relation.of_tuples (Relation.schema r) (List.rev (Relation.tuples r))
  in
  Alcotest.(check bool) "order irrelevant" true (Relation.equal_as_sets r shuffled);
  let other =
    Relation.of_rows ~name:"r" ~columns:[ "K" ] [ ([ "x" ], iv 1 4, 0.5) ]
  in
  Alcotest.(check bool) "different sets" false (Relation.equal_as_sets r other);
  let renamed_lineage =
    Relation.map_tuples
      (fun tp ->
        Tuple.make ~fact:(Tuple.fact tp)
          ~lineage:(Formula.of_string "z1")
          ~iv:(Tuple.iv tp) ~p:(Tuple.p tp))
      r
  in
  Alcotest.(check bool) "lineage matters" false
    (Relation.equal_as_sets r renamed_lineage)

let test_active_domain () =
  match Relation.active_domain (sample ()) with
  | Some span -> Alcotest.(check string) "hull" "[1,9)" (Interval.to_string span)
  | None -> Alcotest.fail "no domain"

let test_timeslice () =
  let r = sample () in
  let sliced = Relation.timeslice (iv 3 7) r in
  Alcotest.(check int) "overlapping tuples survive" 3 (Relation.cardinality sliced);
  List.iter
    (fun tp ->
      let span = Tuple.iv tp in
      Alcotest.(check bool) "clamped" true
        (Interval.ts span >= 3 && Interval.te span <= 7))
    (Relation.tuples sliced);
  Alcotest.(check int) "snapshot keeps the valid ones" 2
    (Relation.cardinality (Relation.snapshot_at 3 r));
  Alcotest.(check int) "empty window drops all" 0
    (Relation.cardinality (Relation.timeslice (iv 20 30) r))

let test_union_all () =
  let r = sample () in
  Alcotest.(check int) "bag union" 6
    (Relation.cardinality (Relation.union_all r r));
  let other = Relation.of_rows ~name:"q" ~columns:[ "A"; "B" ] [] in
  match Relation.union_all r other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "incompatible union accepted"

(* --- CSV --- *)

let test_csv_roundtrip () =
  let r =
    Relation.of_rows ~name:"t" ~columns:[ "City"; "Metric" ]
      [
        ([ "zrh"; "temp" ], iv 3 9, 0.25);
        ([ "gva"; "wind" ], iv 1 2, 0.875);
      ]
  in
  let path = Filename.temp_file "tpdb_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save path r;
      let back = Csv.load ~name:"t" path in
      Alcotest.(check bool) "roundtrip" true (Relation.equal_as_sets r back);
      Alcotest.(check (list string))
        "columns survive"
        [ "City"; "Metric" ]
        (Schema.columns (Relation.schema back)))

let test_csv_derived_lineage () =
  (* Derived tuples (complex lineage, null columns) must survive a CSV
     round-trip too. *)
  let r =
    Relation.of_tuples
      (Schema.make ~name:"d" [ "K"; "H" ])
      [
        Tuple.make
          ~fact:(Fact.of_values [ Value.S "x"; Value.Null ])
          ~lineage:(Formula.of_string "a1 & !(b2 | b3)")
          ~iv:(iv 5 6) ~p:0.084;
      ]
  in
  let path = Filename.temp_file "tpdb_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save path r;
      Alcotest.(check bool) "roundtrip" true
        (Relation.equal_as_sets r (Csv.load ~name:"d" path)))

let test_csv_malformed () =
  (match csv_of_lines ~name:"x" [ "A,lineage,ts,te,p"; "v,a1,3" ] with
  | exception Csv.Error { line = Some 2; _ } -> ()
  | exception Csv.Error _ -> Alcotest.fail "error lost the line number"
  | _ -> Alcotest.fail "short row accepted");
  (match csv_of_lines ~name:"x" [] with
  | exception Csv.Error { line = None; _ } -> ()
  | _ -> Alcotest.fail "empty input accepted");
  match csv_of_lines ~name:"x" ~path:"p.csv" [ "A,lineage,ts,te,p"; "v,a1,9,3,0.5" ] with
  | exception Csv.Error { path = "p.csv"; line = Some 2; _ } -> ()
  | _ -> Alcotest.fail "empty interval accepted"

(* Regression: any parseable float used to be accepted as the tuple
   probability — nan, inf, negative and > 1.0 loaded silently (or
   crashed later with a raw [Invalid_argument] from [Tuple.make]) and
   poisoned downstream weighted model counting. All four must be typed
   CSV errors naming the line. *)
let test_csv_bad_probability () =
  let load p =
    csv_of_lines ~name:"x" ~path:"p.csv"
      [ "A,lineage,ts,te,p"; Printf.sprintf "v,a1,0,3,%s" p ]
  in
  let expect_error what p =
    match load p with
    | exception Csv.Error { path = "p.csv"; line = Some 2; message } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s message mentions probability (%s)" what message)
          true
          (String.length message >= 11
          && String.sub message 0 11 = "probability")
    | exception exn ->
        Alcotest.failf "%s: untyped failure %s" what (Printexc.to_string exn)
    | _ -> Alcotest.failf "%s accepted as a probability" what
  in
  expect_error "nan" "nan";
  expect_error "+inf" "inf";
  expect_error "-inf" "-inf";
  expect_error "negative" "-0.25";
  expect_error "above one" "1.5";
  (* The boundaries stay loadable. *)
  List.iter
    (fun p ->
      match load p with
      | r -> Alcotest.(check int) (p ^ " loads") 1 (Relation.cardinality r)
      | exception exn ->
          Alcotest.failf "%s rejected: %s" p (Printexc.to_string exn))
    [ "0"; "1"; "0.5" ]

(* The hand-written edge relation of test/cram/render.t: Null cells,
   float and extreme int cells, negative bounds, p of 0, 1 and 0.00001,
   lineage that needs parentheses. *)
let edge_csv =
  [
    "K,N,X,lineage,ts,te,p";
    "-,-7,2.5,a1 & !(b2 | c3),-10,-3,0";
    "alpha,0,-0.125,!(a2 & b1) | c4,-5,4,1";
    "beta,12,1e-07,(a3 | b4) & (c1 | !d2),0,1,0.00001";
    "gamma,4611686018427387903,-,!a5,-4611686018427387904,4611686018427387903,0.123456";
    "delta,-4611686018427387904,100000,T,7,9,0.5";
  ]

(* Golden bytes of the canonical CSV: the server store's content digest
   hashes exactly this text, so any drift would invalidate every cached
   result of a reloaded relation. *)
let test_csv_golden () =
  let r = csv_of_lines ~name:"edge" edge_csv in
  Alcotest.(check string) "Csv.to_string"
    (String.concat ""
       [
         "K,N,X,lineage,ts,te,p\n";
         "-,-7,2.5,a1 & !(b2 | c3),-10,-3,0\n";
         "alpha,0,-0.125,!(a2 & b1) | c4,-5,4,1\n";
         "beta,12,1e-07,(a3 | b4) & (c1 | !d2),0,1,1e-05\n";
         "gamma,4611686018427387903,-,!a5,-4611686018427387904,4611686018427387903,0.123456\n";
         "delta,-4611686018427387904,100000,T,7,9,0.5\n";
       ])
    (Csv.to_string r)

(* --- properties --- *)

open QCheck2

let prop_generated_duplicate_free =
  Test.make ~name:"generator produces duplicate-free relations" ~count:100
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    Relation.is_duplicate_free

let prop_coalesce_idempotent =
  Test.make ~name:"coalesce is idempotent" ~count:100
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    (fun r ->
      let once = Relation.coalesce r in
      Relation.equal_as_sets once (Relation.coalesce once))

(* The chained-array check against the list-bucket one it replaced, on
   relations whose facts collide often (including I/F pairs that are
   [Fact.equal]) and whose tuples may repeat physically. *)
let oracle_duplicate_free r =
  let by_fact = Hashtbl.create 16 in
  List.iter
    (fun tp ->
      let key = Fact.hash (Tpdb_relation.Tuple.fact tp) in
      let existing = Option.value (Hashtbl.find_opt by_fact key) ~default:[] in
      Hashtbl.replace by_fact key (tp :: existing))
    (Relation.tuples r);
  Hashtbl.fold
    (fun _ group ok ->
      ok
      && List.for_all
           (fun (tp : Tpdb_relation.Tuple.t) ->
             List.for_all
               (fun (other : Tpdb_relation.Tuple.t) ->
                 tp == other
                 || (not (Fact.equal tp.fact other.fact))
                 || not (Interval.overlaps tp.iv other.iv))
               group)
           group)
    by_fact true

let prop_duplicate_free_matches_oracle =
  Test.make ~name:"is_duplicate_free matches the list-bucket check"
    ~count:500
    Gen.(
      pair
        (list_size (int_range 0 30)
           (triple
              (oneofl [ Value.I 1; Value.F 1.0; Value.I 2; Value.S "x"; Value.Null ])
              (int_range 0 20) (int_range 1 4)))
        (list_size (int_range 0 3) (int_range 0 29)))
    (fun (rows, repeats) ->
      let tuples =
        List.map
          (fun (v, ts, d) ->
            Tpdb_relation.Tuple.make ~fact:[| v |] ~lineage:Formula.true_
              ~iv:(iv ts (ts + d)) ~p:0.5)
          rows
      in
      let tuples =
        tuples
        @ List.filter_map (fun i -> List.nth_opt tuples i) repeats
      in
      let r = Relation.of_tuples (Schema.make ~name:"d" [ "K" ]) tuples in
      Bool.equal (oracle_duplicate_free r) (Relation.is_duplicate_free r))

let prop_csv_roundtrip =
  Test.make ~name:"csv round-trip preserves relations" ~count:50
    ~print:Tp_gen.print_relation
    (Tp_gen.relation_gen ~name:"r" ())
    (fun r ->
      let path = Filename.temp_file "tpdb_prop" ".csv" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Csv.save path r;
          Relation.equal_as_sets r (Csv.load ~name:"r" path)))

(* --- rendering against the Format-based printer ---

   A copy of the original renderer, kept as the oracle for the buffer
   writers: Format.fprintf with a trailing [@.] per line, closures
   over a private buffer for lineage, [^] for variable names and
   Printf for intervals and numbers. *)

let oracle_var (v : Var.t) = v.rel ^ string_of_int v.idx

let oracle_formula f =
  let buf = Buffer.create 64 in
  let rec go level f =
    match Formula.view f with
    | Formula.True -> Buffer.add_string buf "T"
    | Formula.False -> Buffer.add_string buf "F"
    | Formula.Var v -> Buffer.add_string buf (oracle_var v)
    | Formula.Not g ->
        Buffer.add_string buf "\xc2\xac";
        go 2 g
    | Formula.And fs -> infix level 1 " \xe2\x88\xa7 " fs
    | Formula.Or fs -> infix level 0 " \xe2\x88\xa8 " fs
  and infix level own sep fs =
    let needs_parens = level > own in
    if needs_parens then Buffer.add_char buf '(';
    List.iteri
      (fun i f ->
        if i > 0 then Buffer.add_string buf sep;
        go (own + 1) f)
      fs;
    if needs_parens then Buffer.add_char buf ')'
  in
  go 0 f;
  Buffer.contents buf

let oracle_value = function
  | Value.Null -> "-"
  | Value.S s -> s
  | Value.I i -> string_of_int i
  | Value.F f -> Printf.sprintf "%g" f

let oracle_pp ppf r =
  let cols = Schema.columns (Relation.schema r) in
  Format.fprintf ppf "%s (%d tuples)@." (Relation.name r)
    (Relation.cardinality r);
  Format.fprintf ppf "%s | lineage | T | p@." (String.concat " | " cols);
  List.iter
    (fun (tp : Tpdb_relation.Tuple.t) ->
      let cells = List.map oracle_value (Array.to_list tp.fact) in
      Format.fprintf ppf "%s | %s | %s | %.4g@."
        (String.concat " | " cells)
        (oracle_formula tp.lineage)
        (Printf.sprintf "[%d,%d)" (Interval.ts tp.iv) (Interval.te tp.iv))
        tp.p)
    (Relation.tuples r)

let oracle_render r = Format.asprintf "%a" oracle_pp r

(* Relations with every kind of cell, extreme ints in cells and bounds,
   nested lineage and boundary probabilities — wider than the
   generators the join tests use. *)
let wide_relation_gen : Relation.t Gen.t =
  let open Gen in
  let extreme_int =
    oneof [ int; oneofl [ 0; -1; 1; 9; -10; min_int; max_int; min_int + 1 ] ]
  in
  let value =
    oneof
      [
        return Value.Null;
        map (fun s -> Value.S s) (oneofl [ "a"; "zrh"; "x y"; "" ]);
        map (fun i -> Value.I i) extreme_int;
        map (fun f -> Value.F f)
          (oneof [ float; oneofl [ 0.5; -0.125; 2.0; 1e-7; 1e21; -0.0 ] ]);
      ]
  in
  let var = map2 (fun tag i -> Var.make tag i) (oneofl [ "a"; "b"; "sx" ]) (int_bound 40) in
  let formula =
    fix
      (fun self n ->
        if n <= 1 then
          oneof [ map Formula.var var; return Formula.true_; return Formula.false_ ]
        else
          oneof
            [
              map Formula.var var;
              map Formula.neg (self (n / 2));
              map Formula.conj (list_size (int_range 2 3) (self (n / 3)));
              map Formula.disj (list_size (int_range 2 3) (self (n / 3)));
            ])
      8
  in
  let interval =
    let* ts = extreme_int in
    let* len = int_range 1 50 in
    return (if ts > max_int - len then Interval.make (ts - len) ts else Interval.make ts (ts + len))
  in
  let p = oneof [ float_bound_inclusive 1.0; oneofl [ 0.0; 1.0; 0.00001; 0.123456 ] ] in
  let* arity = int_range 0 3 in
  let columns = List.init arity (fun i -> Printf.sprintf "C%d" i) in
  let* rows =
    list_size (int_range 0 8)
      (let* values = list_repeat arity value in
       let* lineage = formula in
       let* iv = interval in
       let* p = p in
       return
         (Tpdb_relation.Tuple.make ~fact:(Fact.of_values values) ~lineage ~iv ~p))
  in
  return (Relation.of_tuples (Schema.make ~name:"w" columns) rows)

let matches_oracle r =
  let want = oracle_render r in
  String.equal want (Relation.to_string r)
  && String.equal want (Format.asprintf "%a" Relation.pp r)

let prop_render_generated =
  Test.make ~name:"to_string and pp match the Format printer (generated)"
    ~count:200 ~print:oracle_render
    (Tp_gen.relation_gen ~name:"r" ())
    matches_oracle

let prop_render_wide =
  Test.make ~name:"to_string and pp match the Format printer (wide)"
    ~count:300 ~print:oracle_render wide_relation_gen matches_oracle

(* The CSV writer against the list-and-concat one it replaced. *)
let oracle_csv r =
  let cols = Schema.columns (Relation.schema r) in
  String.concat ""
    (List.map
       (fun l -> l ^ "\n")
       (String.concat "," (cols @ [ "lineage"; "ts"; "te"; "p" ])
       :: List.map
            (fun (tp : Tpdb_relation.Tuple.t) ->
              String.concat ","
                (List.map oracle_value (Array.to_list tp.fact)
                @ [
                    Formula.to_string_ascii tp.lineage;
                    string_of_int (Interval.ts tp.iv);
                    string_of_int (Interval.te tp.iv);
                    Printf.sprintf "%.12g" tp.p;
                  ]))
            (Relation.tuples r)))

let prop_csv_writer =
  Test.make ~name:"Csv.to_string matches the concatenating writer"
    ~count:300 ~print:oracle_render wide_relation_gen (fun r ->
      String.equal (oracle_csv r) (Csv.to_string r))

(* Text printed on the same formatter after [pp] must come out as it did
   after the trailing [@.]: the caller's boxes are closed and the
   formatter reset. A narrow margin makes any difference in box state
   show up as a different line break. *)
let test_pp_formatter_state () =
  let r = csv_of_lines ~name:"edge" edge_csv in
  let small = sample () in
  let render margin pp =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    Format.pp_set_margin ppf margin;
    Format.fprintf ppf "@[<hov 2>a rather long heading@ %a after the@ table@ %a@ tail words@]@."
      pp r pp small;
    Format.fprintf ppf "@[<v 1>next:@,%a@,done@]@?" pp small;
    Buffer.contents buf
  in
  List.iter
    (fun margin ->
      Alcotest.(check string)
        (Printf.sprintf "margin %d" margin)
        (render margin oracle_pp) (render margin Relation.pp))
    [ 10; 20; 78; 200 ]

(* Big enough to cross the 64 KiB chunk boundary several times. *)
let test_render_chunked () =
  let r =
    Relation.of_tuples
      (Schema.make ~name:"big" [ "K"; "N" ])
      (List.init 6000 (fun i ->
           Tpdb_relation.Tuple.make
             ~fact:(Fact.of_values [ Value.S (Printf.sprintf "key%d" (i mod 97)); Value.I (i - 3000) ])
             ~lineage:(Formula.of_string (Printf.sprintf "a%d & !(b%d | c%d)" i (i + 1) i))
             ~iv:(iv (i - 100) (i + 7))
             ~p:(float_of_int i /. 6000.)))
  in
  let want = oracle_render r in
  Alcotest.(check bool) "several chunks" true (String.length want > 4 * 65536);
  Alcotest.(check string) "to_string" want (Relation.to_string r);
  Alcotest.(check string) "pp" want (Format.asprintf "%a" Relation.pp r);
  let path = Filename.temp_file "tpdb_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.save path r;
      let ic = open_in_bin path in
      let saved = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "Csv.save = Csv.to_string" (oracle_csv r) saved)

(* --- the in-place CSV parser against the line-list parser ---

   A copy of the original parser, kept as the oracle for
   [Csv.of_string]: the text split into lines as [input_line] split a
   file, each row split into a list of cells, every cell through the
   general parsers. Accepted documents must give identical tuples
   (values, hash-consed lineage, interval, the bits of p); rejected
   ones the identical [Csv.Error]. *)

let oracle_error ~path ?line fmt =
  Printf.ksprintf
    (fun message -> raise (Csv.Error { path; line; message }))
    fmt

let oracle_of_lines ~name ~path lines =
  let error = oracle_error in
  match lines with
  | [] -> error ~path "empty input: expected a header line"
  | header :: rows ->
      let fields = String.split_on_char ',' header in
      let ncols = List.length fields - 4 in
      if ncols < 0 then
        error ~path ~line:1
          "header too short: expected [col1,...,colN,lineage,ts,te,p], got \
           %d field(s)"
          (List.length fields);
      let columns = List.filteri (fun i _ -> i < ncols) fields in
      let schema =
        try Schema.make ~name columns
        with Invalid_argument msg -> error ~path ~line:1 "bad header: %s" msg
      in
      let parse_row lineno line =
        let fail fmt = error ~path ~line:lineno fmt in
        let cells = String.split_on_char ',' line in
        if List.length cells <> ncols + 4 then
          fail "wrong field count: expected %d, got %d" (ncols + 4)
            (List.length cells);
        let values = List.filteri (fun i _ -> i < ncols) cells in
        match List.filteri (fun i _ -> i >= ncols) cells with
        | [ lineage; ts; te; p ] ->
            let int_field what s =
              match int_of_string_opt (String.trim s) with
              | Some n -> n
              | None -> fail "%s is not an integer: '%s'" what s
            in
            let lineage =
              try Formula.of_string lineage
              with _ -> fail "unparsable lineage: '%s'" lineage
            in
            let iv =
              let ts = int_field "ts" ts and te = int_field "te" te in
              try Interval.make ts te with
              | Invalid_argument msg -> fail "bad interval: %s" msg
              | Interval.Empty_interval (a, b) ->
                  fail "empty interval [%d,%d): ts must be below te" a b
            in
            let p =
              match float_of_string_opt (String.trim p) with
              | None -> fail "probability is not a number: '%s'" p
              | Some v when Float.is_nan v -> fail "probability is NaN: '%s'" p
              | Some v when not (Float.is_finite v) ->
                  fail "probability is infinite: '%s'" p
              | Some v when v < 0.0 || v > 1.0 ->
                  fail "probability %g out of [0,1]" v
              | Some v -> v
            in
            Tpdb_relation.Tuple.make ~fact:(Fact.of_strings values) ~lineage ~iv ~p
        | _ ->
            fail "wrong field count: expected %d, got %d" (ncols + 4)
              (List.length cells)
      in
      Relation.of_tuples schema
        (List.concat
           (List.mapi
              (fun i line ->
                if String.equal line "" then [] else [ parse_row (i + 2) line ])
              rows))

(* The lines [input_line] returns for a file holding [text]. *)
let input_lines text =
  match List.rev (String.split_on_char '\n' text) with
  | "" :: rest -> List.rev rest
  | lines -> List.rev lines

let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Null, Null -> true
  | S x, S y -> String.equal x y
  | I x, I y -> x = y
  | F x, F y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | (Null | S _ | I _ | F _), _ -> false

let same_tuple (a : Tpdb_relation.Tuple.t) (b : Tpdb_relation.Tuple.t) =
  Array.length a.fact = Array.length b.fact
  && Array.for_all2 same_value a.fact b.fact
  && a.lineage == b.lineage
  && Interval.equal a.iv b.iv
  && Int64.equal (Int64.bits_of_float a.p) (Int64.bits_of_float b.p)

type parsed = Rows of Relation.t | Failed of string * int option * string | Raised of string

let parse f =
  match f () with
  | r -> Rows r
  | exception Csv.Error { path; line; message } -> Failed (path, line, message)
  | exception exn -> Raised (Printexc.to_string exn)

let same_parse a b =
  match (a, b) with
  | Rows r, Rows s ->
      Schema.name (Relation.schema r) = Schema.name (Relation.schema s)
      && List.equal String.equal
           (Schema.columns (Relation.schema r))
           (Schema.columns (Relation.schema s))
      && List.equal same_tuple (Relation.tuples r) (Relation.tuples s)
  | Failed (p, l, m), Failed (p', l', m') ->
      String.equal p p' && Option.equal Int.equal l l' && String.equal m m'
  | Raised x, Raised y -> String.equal x y
  | (Rows _ | Failed _ | Raised _), _ -> false

let digits n = Gen.(map (String.concat "") (list_repeat n (map string_of_int (int_range 0 9))))

(* Documents mixing every cell shape the parser special-cases. Half of
   them draw lineage, interval and probability cells only from valid
   shapes, so most of those load and their tuples are compared; the
   other half draw from everything and mostly fail somewhere. Value
   cells always parse. *)
let csv_doc_gen =
  let open Gen in
  let value =
    oneof
      [
        oneofl
          [ "-"; ""; " 1.5"; "1_000"; "0x1F"; "nan"; "inf"; "infinity"; "_1";
            "i7"; "n0"; "NaN"; "Infinity"; "INF"; "e5"; "+3"; ".5"; "5.";
            "-0"; "abc"; "Zed"; "x y"; "007"; "2.5"; "-0.125"; "1e-07";
            "4611686018427387903"; "-4611686018427387904";
            "4611686018427387904"; "0b101"; "0o17"; "-a" ];
        map string_of_int int;
        map string_of_int (int_range (-50) 50);
        int_range 15 22 >>= digits;
        map (fun s -> "-" ^ s) (int_range 15 22 >>= digits);
      ]
  in
  let good_lineage =
    oneof
      [
        oneofl
          [ "a1"; "x12"; "tag_9"; "T"; "F"; "a1 & !(b2 | c3)";
            "(a3 | b4) & (c1 | !d2)"; " a1"; "a1 "; "1a2"; "_1"; "!a5";
            "(a1)"; "a007"; "a0b1"; "T & a1"; "a1|b2" ];
        map (fun n -> "r" ^ string_of_int n) (int_range 0 1000);
        map (fun s -> "tag_" ^ s) (int_range 1 18 >>= digits);
      ]
  and bad_lineage =
    oneof
      [
        oneofl [ "b"; "12"; ""; "a1 &"; "r1-"; "a1 b2"; "(a1" ];
        map (fun s -> "s" ^ s) (int_range 19 24 >>= digits);
      ]
  and good_time =
    oneof
      [
        map string_of_int (int_range (-20) 40);
        oneofl [ " 3"; "3 "; "+4"; "0x10"; "1_0"; "-5"; "0o7"; "-0" ];
      ]
  and bad_time =
    oneof
      [
        oneofl
          [ ""; "abc"; "-"; "4611686018427387903"; "-4611686018427387904";
            "0u12"; "1.5" ];
        int_range 17 22 >>= digits;
      ]
  and good_prob =
    oneof
      [
        oneofl
          [ "0"; "1"; "0.5"; "0.123456789012"; "1e-05"; "0.00001"; "-0";
            "-0.0"; " 0.25"; "0.25 "; ".5"; "0."; "00.5"; "0x0.8p0";
            "1.0"; "1.0000000000000000001"; "0.1234567890123456789";
            "9007199254740993e-16"; "0.9007199254740993" ];
        map (fun s -> "0." ^ s) (int_range 1 25 >>= digits);
        map (fun s -> "0.0000" ^ s) (int_range 1 14 >>= digits);
        map (Printf.sprintf "%.12g") (float_range 0.0 1.0);
        map (Printf.sprintf "%.17g") (float_range 0.0 1.0);
      ]
  and bad_prob =
    oneofl
      [ "nan"; "inf"; "-inf"; "1.5"; "5."; "."; "1_0"; "abc"; ""; "-0.25";
        "2" ]
  in
  let header ncols =
    frequency
      [
        ( 9,
          return
            (String.concat ","
               (List.init ncols (fun i -> [| "A"; "B"; "K" |].(i))
               @ [ "lineage"; "ts"; "te"; "p" ])) );
        (1, oneofl [ "A,lineage,ts"; "A,A,lineage,ts,te,p"; ""; "A,lineage,ts,te,p,extra" ]);
      ]
  in
  let row ~clean ncols =
    let pick good bad = if clean then good else oneof [ good; bad ] in
    frequency
      [
        ( 12,
          map4
            (fun vs l (ts, te) p -> String.concat "," (vs @ [ l; ts; te; p ]))
            (list_repeat ncols value)
            (pick good_lineage bad_lineage)
            (if clean then
               map
                 (fun (a, d) -> (string_of_int a, string_of_int (a + d)))
                 (pair (int_range (-20) 40) (int_range 1 9))
             else pair (pick good_time bad_time) (pick good_time bad_time))
            (pick good_prob bad_prob) );
        (* a Webkit-like row: the fast path on every cell *)
        ( 8,
          map3
            (fun vs (i, n) p ->
              String.concat ","
                (vs @ [ Printf.sprintf "r%d" i; string_of_int n;
                        string_of_int (n + 1 + i); p ]))
            (list_repeat ncols value)
            (pair (int_range 0 99) (int_range 0 99))
            (map (Printf.sprintf "%.12g") (float_range 0.0 1.0)) );
        (1, return "");
        ( (if clean then 0 else 1),
          map (String.concat ",") (list_size (int_range 0 8) value) );
      ]
  in
  bool >>= fun clean ->
  int_range 0 3 >>= fun ncols ->
  quad (header ncols)
    (list_size (int_range 0 8) (row ~clean ncols))
    (oneofl [ "\n"; "\r\n" ]) bool
  >|= fun (h, rows, eol, final) ->
  let body = String.concat eol (h :: rows) in
  if final then body ^ eol else body

let prop_csv_of_string =
  Test.make ~name:"Csv.of_string matches the line-list parser" ~count:3000
    ~print:String.escaped csv_doc_gen (fun text ->
      same_parse
        (parse (fun () -> oracle_of_lines ~name:"d" ~path:"d.csv" (input_lines text)))
        (parse (fun () -> Csv.of_string ~name:"d" ~path:"d.csv" text)))

(* The file path reads the whole text and parses it the same way. *)
let test_csv_load_whole_file () =
  let text = "A,lineage,ts,te,p\r\nx,a1,0,3,0.5\r\n\r\n-,b2,1,2,1" in
  let path = Filename.temp_file "tpdb_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Alcotest.(check bool) "load = of_string" true
        (same_parse
           (parse (fun () -> Csv.of_string ~name:"d" ~path text))
           (parse (fun () -> Csv.load ~name:"d" path))));
  match Csv.load ~name:"d" (Filename.concat path "missing") with
  | exception Csv.Error { line = None; _ } -> ()
  | _ -> Alcotest.fail "a missing file loaded"

(* --- number writers --- *)

module Numbers = Tpdb_text.Numbers

let via add x =
  let buf = Buffer.create 8 in
  add buf x;
  Buffer.contents buf

let test_int_writer () =
  List.iter
    (fun n ->
      Alcotest.(check string) (string_of_int n) (string_of_int n)
        (via Numbers.add_int n))
    [ 0; 1; -1; 9; -9; 10; -10; 99; 100; -100; 1234567890; min_int; max_int;
      min_int + 1; max_int - 1 ]

let prop_int_writer =
  Test.make ~name:"add_int = string_of_int" ~count:1000 Gen.int (fun n ->
      String.equal (string_of_int n) (via Numbers.add_int n))

(* Inputs that reach both paths of the float writers: random bit
   patterns; short decimals; decimals exactly half-way at 4, 6 and 12
   significant digits and one ulp either side, where the fast path must
   give way to [printf]; dyadic fractions, whose ties are exact;
   subnormals; and the specials, including 1e21/1e22 at the edge of
   exact powers of ten. *)
let gen_float_writer_input =
  let open Gen in
  let decimal digits =
    map2
      (fun m k -> float_of_string (Printf.sprintf "%de%d" m k))
      (int_bound (int_of_float (10.0 ** float_of_int digits)))
      (int_range (-30) 10)
  in
  let halfway =
    map3
      (fun digits (m, k) ulp ->
        let m = (m mod int_of_float (10.0 ** float_of_int digits)) + 1 in
        let v = float_of_string (Printf.sprintf "%d5e%d" m k) in
        match ulp with 0 -> Float.pred v | 1 -> v | _ -> Float.succ v)
      (oneofl [ 4; 5; 6; 7; 12; 13 ])
      (pair (int_bound max_int) (int_range (-30) 10))
      (int_bound 2)
  in
  let dyadic = map2 (fun m k -> Float.ldexp (float_of_int m) (-k)) (int_bound 1_000_000) (int_bound 60) in
  let subnormal = map (fun bits -> Int64.float_of_bits (Int64.logand bits 0xF_FFFF_FFFF_FFFFL)) int64 in
  let special =
    oneofl
      [ 0.0; -0.0; nan; infinity; neg_infinity; 1e21; 1e22; 1e23; Float.pred 1e22;
        Float.succ 1e21; 1e-5; 9.99995e-5; 0.5; 999999.5; 5e-324; max_float; min_float ]
  in
  oneof
    [ map Int64.float_of_bits int64; float_bound_inclusive 1.0; decimal 6; decimal 12;
      halfway; dyadic; subnormal; special ]

let prop_float_writers =
  Test.make ~name:"float writers = Printf" ~count:20_000
    ~print:(Printf.sprintf "%h") gen_float_writer_input
    (fun f ->
      String.equal (Printf.sprintf "%g" f) (via Numbers.add_g f)
      && String.equal (Printf.sprintf "%.4g" f) (via Numbers.add_g4 f)
      && String.equal (Printf.sprintf "%.12g" f) (via Numbers.add_g12 f))

let qcheck = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let suite =
  [
    Alcotest.test_case "values" `Quick test_value;
    Alcotest.test_case "facts" `Quick test_fact;
    Alcotest.test_case "schemas" `Quick test_schema;
    Alcotest.test_case "tuples" `Quick test_tuple;
    Alcotest.test_case "of_rows lineage assignment" `Quick test_of_rows_lineage;
    Alcotest.test_case "duplicate-freeness" `Quick test_duplicate_free;
    Alcotest.test_case "arity validation" `Quick test_arity_mismatch;
    Alcotest.test_case "coalesce" `Quick test_coalesce;
    Alcotest.test_case "set equality" `Quick test_equal_as_sets;
    Alcotest.test_case "active domain" `Quick test_active_domain;
    Alcotest.test_case "timeslice / snapshot" `Quick test_timeslice;
    Alcotest.test_case "union_all" `Quick test_union_all;
    Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv derived lineage" `Quick test_csv_derived_lineage;
    Alcotest.test_case "csv malformed" `Quick test_csv_malformed;
    Alcotest.test_case "csv rejects non-probability p" `Quick
      test_csv_bad_probability;
    Alcotest.test_case "csv golden bytes" `Quick test_csv_golden;
    Alcotest.test_case "csv load reads the whole file" `Quick
      test_csv_load_whole_file;
    qcheck prop_generated_duplicate_free;
    qcheck prop_duplicate_free_matches_oracle;
    qcheck prop_coalesce_idempotent;
    qcheck prop_csv_roundtrip;
    qcheck prop_render_generated;
    qcheck prop_render_wide;
    qcheck prop_csv_writer;
    qcheck prop_csv_of_string;
    Alcotest.test_case "pp leaves the formatter as @. did" `Quick
      test_pp_formatter_state;
    Alcotest.test_case "chunked rendering of a large relation" `Quick
      test_render_chunked;
    Alcotest.test_case "int writer" `Quick test_int_writer;
    qcheck prop_int_writer;
    qcheck prop_float_writers;
  ]
