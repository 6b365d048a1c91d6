(* The observability layer: counters reproduce the paper example's
   ground-truth window counts, sinks never change join results, and the
   Chrome trace export is well-formed JSON of complete events. *)

module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Theta = Tpdb_windows.Theta
module Nj = Tpdb_joins.Nj
module Physical = Tpdb_query.Physical
module Metrics = Tpdb_obs.Metrics
module Trace = Tpdb_obs.Trace
module Clock = Tpdb_obs.Clock

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

(* --- a tiny JSON reader ---------------------------------------------

   Just enough to validate the exporters' output structurally without
   adding a JSON dependency to the test suite: objects, arrays, strings
   with the escapes Json.escape emits, numbers, literals. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      value
    end
    else fail ("expected " ^ word)
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* the exporter only \u-escapes control characters *)
              Buffer.add_char buf (Char.chr (code land 0xff))
          | Some c ->
              advance ();
              Buffer.add_char buf
                (match c with
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | 'b' -> '\b'
                | 'f' -> '\012'
                | c -> c)
          | None -> fail "unterminated escape");
          go ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let numeric = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numeric c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> x
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> fail "empty input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> Alcotest.failf "missing member %S" k)
  | _ -> Alcotest.failf "expected an object around %S" k

(* --- window-count ground truth on the paper example ------------------ *)

(* [sanitize:false] explicitly: the counter assertions below would
   otherwise depend on whether TPDB_SANITIZE is set in the environment
   (the output check recomputes every probability). *)
let paper_join ?(jobs = 1) kind =
  Nj.join
    ~options:(Nj.options ~parallelism:jobs ~sanitize:false ())
    ~kind ~theta:Fixtures.theta_loc (Fixtures.relation_a ())
    (Fixtures.relation_b ())

let window_counts ?jobs kind =
  let m = Metrics.create () in
  Metrics.with_sink m (fun () -> ignore (paper_join ?jobs kind));
  ( Metrics.get m Metrics.Windows_overlapping,
    Metrics.get m Metrics.Windows_unmatched,
    Metrics.get m Metrics.Windows_negating )

(* Fig. 2 on the running example: Ann's group has two overlapping
   windows (hotel1, hotel2), the gap [2,4) and three negating segments;
   Jim's group is a single spanning unmatched window; the right-hand
   sweep adds one negating window per matched hotel and the spanning
   window of the never-matched hotel3. *)
let test_paper_window_counts () =
  let check name kind want =
    Alcotest.(check (triple int int int)) name want (window_counts kind)
  in
  check "inner: WO + spanning WU" Nj.Inner (2, 1, 0);
  check "anti: full left pipeline" Nj.Anti (2, 2, 3);
  check "left outer" Nj.Left (2, 2, 3);
  check "right outer: right-hand sweep" Nj.Right (2, 2, 2);
  check "full outer: both sides" Nj.Full (2, 3, 5)

let test_parallel_window_counts () =
  List.iter
    (fun kind ->
      Alcotest.(check (triple int int int))
        "jobs=2 counts match sequential" (window_counts kind)
        (window_counts ~jobs:2 kind))
    [ Nj.Inner; Nj.Anti; Nj.Left; Nj.Right; Nj.Full ]

let test_paper_pipeline_counters () =
  let m = Metrics.create () in
  let result = Metrics.with_sink m (fun () -> paper_join Nj.Left) in
  Alcotest.(check int) "tuples_in" 5 (Metrics.get m Metrics.Tuples_in);
  Alcotest.(check int) "tuples_out" (Relation.cardinality result)
    (Metrics.get m Metrics.Tuples_out);
  Alcotest.(check int) "tuples_out is Fig. 1b's 7 rows" 7
    (Metrics.get m Metrics.Tuples_out);
  Alcotest.(check int) "one probability per output tuple" 7
    (Metrics.get m Metrics.Prob_evals);
  Alcotest.(check int) "LAWAN sweeps Ann's three segments" 3
    (Metrics.get m Metrics.Sweep_segments);
  Alcotest.(check bool) "lineages have nodes" true
    (Metrics.get m Metrics.Lineage_nodes > 0);
  Alcotest.(check int) "no sanitizer work when sanitize is off" 0
    (Metrics.get m Metrics.Sanitizer_checks)

let test_partition_metrics () =
  let m = Metrics.create () in
  ignore (Metrics.with_sink m (fun () -> paper_join ~jobs:2 Nj.Left));
  let sweeps = Metrics.get m Metrics.Partition_sweeps in
  let sizes = Metrics.dist_stats m Metrics.Partition_size in
  Alcotest.(check int) "two partition sweeps" 2 sweeps;
  Alcotest.(check int) "one size sample per sweep" sweeps sizes.Metrics.count;
  Alcotest.(check int) "partition sizes sum to the input" 5 sizes.Metrics.sum;
  Alcotest.(check bool) "max <= sum" true (sizes.Metrics.max <= sizes.Metrics.sum);
  let busy = Metrics.dist_stats m Metrics.Domain_busy_ns in
  Alcotest.(check int) "busy time sampled per sweep" sweeps busy.Metrics.count

let test_sanitizer_metrics () =
  let m = Metrics.create () in
  let options = Nj.options ~sanitize:true () in
  ignore
    (Metrics.with_sink m (fun () ->
         Nj.join ~options ~kind:Nj.Left ~theta:Fixtures.theta_loc
           (Fixtures.relation_a ()) (Fixtures.relation_b ())));
  Alcotest.(check bool) "sanitizer checks counted" true
    (Metrics.get m Metrics.Sanitizer_checks > 0)

(* --- sink mechanics --------------------------------------------------- *)

let test_no_sink_is_noop () =
  Metrics.uninstall ();
  Alcotest.(check bool) "disabled" false (Metrics.enabled ());
  (* recording without a sink must not raise (and goes nowhere) *)
  Metrics.incr Metrics.Tuples_in;
  Metrics.add Metrics.Tuples_out 3;
  Metrics.observe Metrics.Partition_size 7;
  Alcotest.(check int) "time passes the result through" 41
    (Metrics.time Metrics.Sanitizer_ns (fun () -> 41));
  Trace.uninstall ();
  Alcotest.(check bool) "trace disabled" false (Trace.enabled ());
  Trace.instant "nobody-listens";
  Alcotest.(check int) "with_span passes the result through" 42
    (Trace.with_span "quiet" (fun () -> 42))

let test_with_sink_restores () =
  let outer = Metrics.create () and inner = Metrics.create () in
  Metrics.with_sink outer (fun () ->
      Metrics.with_sink inner (fun () -> Metrics.incr Metrics.Tuples_in);
      Alcotest.(check bool) "outer sink restored" true
        (match Metrics.active () with Some t -> t == outer | None -> false);
      Metrics.incr Metrics.Tuples_in);
  Alcotest.(check int) "inner count" 1 (Metrics.get inner Metrics.Tuples_in);
  Alcotest.(check int) "outer count" 1 (Metrics.get outer Metrics.Tuples_in);
  Alcotest.(check bool) "uninstalled at the end" false (Metrics.enabled ())

let test_reset_and_snapshot () =
  let m = Metrics.create () in
  Metrics.with_sink m (fun () ->
      Metrics.add Metrics.Tuples_in 4;
      Metrics.observe Metrics.Partition_size 3;
      Metrics.observe Metrics.Partition_size 5);
  let snap = Metrics.snapshot m in
  Alcotest.(check int) "snapshot counter" 4
    (List.assoc "tuples_in" snap.Metrics.counters);
  let sizes = List.assoc "partition_size" snap.Metrics.dists in
  Alcotest.(check int) "dist count" 2 sizes.Tpdb_obs.Hist.count;
  Alcotest.(check int) "dist sum" 8 sizes.Tpdb_obs.Hist.sum;
  Alcotest.(check int) "dist min" 3 sizes.Tpdb_obs.Hist.min;
  Alcotest.(check int) "dist max" 5 sizes.Tpdb_obs.Hist.max;
  Alcotest.(check (float 1e-9)) "dist mean" 4.0 (Tpdb_obs.Hist.mean sizes);
  Metrics.reset m;
  Alcotest.(check int) "reset clears counters" 0 (Metrics.get m Metrics.Tuples_in);
  Alcotest.(check int) "reset clears dists" 0
    (Metrics.dist_stats m Metrics.Partition_size).Metrics.count

let test_clock_monotonic () =
  let rec go i last =
    if i < 1000 then begin
      let t = Clock.now_ns () in
      Alcotest.(check bool) "non-decreasing" true (t >= last);
      go (i + 1) t
    end
  in
  go 0 (Clock.now_ns ())

(* Regression: durations used to come from [Unix.gettimeofday], so an
   NTP step mid-query produced negative (or wildly wrong) spans. The
   clock must read a monotonic source wherever the OS has one — which
   is everywhere we build — and keep wall time only as the absolute
   anchor. *)
let test_clock_source_and_durations () =
  Alcotest.(check bool) "monotonic source" true (Clock.source = `Monotonic);
  Alcotest.(check bool) "wall epoch is a plausible unix time" true
    (Clock.wall_epoch > 1.0e9);
  let t0 = Clock.now_ns () in
  Alcotest.(check bool) "now_ns is non-negative" true (t0 >= 0);
  let deadline = t0 + 2_000_000 in
  let rec spin last =
    let t = Clock.now_ns () in
    if t - last < 0 then
      Alcotest.failf "negative duration: %d ns" (t - last);
    if t < deadline then spin t
  in
  spin t0

(* --- the Chrome trace export ------------------------------------------ *)

let test_trace_export () =
  let t = Trace.create () in
  Trace.with_sink t (fun () -> ignore (paper_join ~jobs:2 Nj.Full));
  let doc = parse_json (Trace.to_json t) in
  (match member "displayTimeUnit" doc with
  | Str "ms" -> ()
  | _ -> Alcotest.fail "bad displayTimeUnit");
  let events =
    match member "traceEvents" doc with
    | Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Alcotest.(check bool) "has events" true (events <> []);
  List.iter
    (fun e ->
      let str k =
        match member k e with
        | Str s -> s
        | _ -> Alcotest.failf "member %S not a string" k
      in
      let num k =
        match member k e with
        | Num x -> x
        | _ -> Alcotest.failf "member %S not a number" k
      in
      Alcotest.(check bool) "name non-empty" true (str "name" <> "");
      Alcotest.(check bool) "cat non-empty" true (str "cat" <> "");
      Alcotest.(check bool) "ts >= 0" true (num "ts" >= 0.0);
      ignore (num "pid");
      ignore (num "tid");
      (* every event is complete (X, with a duration) or an instant *)
      match str "ph" with
      | "X" -> Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.0)
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %S" ph)
    events;
  let names = Trace.span_names t in
  List.iter
    (fun want ->
      Alcotest.(check bool) ("span " ^ want) true (List.mem want names))
    [
      "nj-full-outer";
      "overlap";
      "lawau";
      "lawan";
      "right-sweep";
      "partition-0";
      "partition-1";
      "merge-grouped";
    ]

let test_trace_escaping () =
  let t = Trace.create () in
  let name = "weird \"name\"\twith\ttabs\nand newlines \\ backslash" in
  Trace.with_sink t (fun () ->
      Trace.instant ~args:[ ("detail", "line1\nline2") ] name);
  let doc = parse_json (Trace.to_json t) in
  match member "traceEvents" doc with
  | Arr [ e ] ->
      (match member "name" e with
      | Str got -> Alcotest.(check string) "name round-trips" name got
      | _ -> Alcotest.fail "name not a string");
      (match member "detail" (member "args" e) with
      | Str got -> Alcotest.(check string) "arg round-trips" "line1\nline2" got
      | _ -> Alcotest.fail "arg not a string")
  | _ -> Alcotest.fail "expected exactly one event"

let test_metrics_json () =
  let m = Metrics.create () in
  ignore (Metrics.with_sink m (fun () -> paper_join ~jobs:2 Nj.Left));
  let doc = parse_json (Metrics.to_json m) in
  let counters = member "counters" doc in
  List.iter
    (fun key ->
      match member key counters with
      | Num _ -> ()
      | _ -> Alcotest.failf "counter %S not a number" key)
    [
      "tuples_in";
      "tuples_out";
      "windows_overlapping";
      "windows_unmatched";
      "windows_negating";
      "sweep_segments";
      "lineage_nodes";
      "prob_evals";
      "partition_sweeps";
      "sanitizer_checks";
      "prob_cache_hits";
      "prob_cache_misses";
      "prob_cache_resets";
    ];
  (match member "prob_cache_lookup_ns" (member "distributions" doc) with
  | Obj _ -> ()
  | _ -> Alcotest.fail "prob_cache_lookup_ns distribution missing");
  match member "partition_size" (member "distributions" doc) with
  | Obj _ as d -> (
      (* the histogram rework: every distribution carries min and the
         p50/p90/p99 quantiles besides the exact moments *)
      List.iter
        (fun k ->
          match member k d with
          | Num _ -> ()
          | _ -> Alcotest.failf "distribution field %S not a number" k)
        [ "count"; "sum"; "min"; "max"; "mean"; "p50"; "p90"; "p99" ];
      match (member "count" d, member "mean" d, member "p90" d) with
      | Num c, Num mean, Num p90 ->
          Alcotest.(check (float 1e-9)) "two samples" 2.0 c;
          Alcotest.(check (float 1e-9)) "mean of the two partitions" 2.5 mean;
          Alcotest.(check (float 1e-9)) "p90 is the larger partition" 3.0 p90
      | _ -> Alcotest.fail "count/mean/p90 not numbers")
  | _ -> Alcotest.fail "partition_size not an object"

(* --- OpenMetrics export ------------------------------------------------ *)

let test_openmetrics () =
  let m = Metrics.create () in
  ignore
    (Metrics.with_sink m (fun () ->
         Metrics.observe_labeled ~metric:"alloc_minor_words" ~label:"overlap"
           512;
         paper_join ~jobs:2 Nj.Left));
  let text = Metrics.to_openmetrics m in
  Alcotest.(check bool) "ends with # EOF" true
    (let n = String.length text in
     n >= 6 && String.sub text (n - 6) 6 = "# EOF\n");
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [
      "# TYPE tpdb_tuples_in counter";
      "tpdb_tuples_in_total 5";
      "# TYPE tpdb_partition_size summary";
      "tpdb_partition_size{quantile=\"0.5\"}";
      "tpdb_partition_size_count 2";
      "tpdb_partition_size_sum 5";
      "# TYPE tpdb_partition_size_max gauge";
      "# TYPE tpdb_alloc_minor_words summary";
      "tpdb_alloc_minor_words{span=\"overlap\",quantile=\"0.5\"}";
    ];
  (* exactly one EOF marker, at the very end *)
  let count_eof =
    let rec go i acc =
      if i + 5 > String.length text then acc
      else
        go (i + 1) (if String.sub text i 5 = "# EOF" then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "single EOF" 1 count_eof

(* --- per-span GC accounting -------------------------------------------- *)

let test_trace_gc_args () =
  let m = Metrics.create () in
  let t = Trace.create ~gc:true () in
  ignore
    (Metrics.with_sink m (fun () ->
         Trace.with_sink t (fun () ->
             Trace.with_span "alloc-heavy" (fun () ->
                 (* small blocks: lands on the minor heap *)
                 Sys.opaque_identity (List.init 1_000 (fun i -> Some i))))));
  let doc = parse_json (Trace.to_json t) in
  (match member "traceEvents" doc with
  | Arr [ e ] ->
      let args = member "args" e in
      List.iter
        (fun k ->
          match member k args with
          | Str s ->
              Alcotest.(check bool) (k ^ " parses as int") true
                (int_of_string_opt s <> None)
          | _ -> Alcotest.failf "gc arg %S not a string" k)
        [ "minor_words"; "major_words"; "promoted_words"; "major_collections" ];
      (match member "minor_words" args with
      | Str s ->
          Alcotest.(check bool) "span allocated on the minor heap" true
            (int_of_string s > 0)
      | _ -> Alcotest.fail "minor_words missing")
  | _ -> Alcotest.fail "expected exactly one event");
  (* the span also fed the labeled per-span histograms *)
  let labeled = (Metrics.snapshot m).Metrics.labeled in
  let find metric =
    List.exists
      (fun (m', l, s) ->
        m' = metric && l = "alloc-heavy" && s.Tpdb_obs.Hist.count = 1)
      labeled
  in
  Alcotest.(check bool) "alloc_minor_words histogram" true
    (find "alloc_minor_words");
  Alcotest.(check bool) "alloc_major_words histogram" true
    (find "alloc_major_words")

let test_gc_off_no_args () =
  let t = Trace.create () in
  Trace.with_sink t (fun () -> Trace.with_span "quiet" (fun () -> ()));
  Alcotest.(check bool) "no gc args without ~gc:true" true
    (not (contains (Trace.to_json t) "minor_words"))

let test_count_alloc_split () =
  let m = Metrics.create () in
  Metrics.with_sink m (fun () ->
      Metrics.count_alloc Metrics.Minor_alloc_words (fun () ->
          (* small blocks land on the minor heap ... *)
          ignore (Sys.opaque_identity (List.init 1_000 (fun i -> Some i)));
          (* ... a > 256-word array goes directly to the major heap *)
          ignore (Sys.opaque_identity (Array.make 100_000 0))));
  Alcotest.(check bool) "minor words counted" true
    (Metrics.get m Metrics.Minor_alloc_words > 0);
  Alcotest.(check bool) "major words counted" true
    (Metrics.get m Metrics.Major_alloc_words > 0);
  Alcotest.(check bool) "promoted words non-negative" true
    (Metrics.get m Metrics.Promoted_words >= 0)

(* --- plan fingerprints -------------------------------------------------- *)

let paper_plan ?(kind = Nj.Left) ?(parallelism = 1) ?(sanitize = false) () =
  Physical.Tp_join
    {
      kind;
      parallelism;
      sanitize;
      prob_cache = true;
      safe_lineage = false;
      mem_budget = 0;
      est_rows = None;
      theta = Fixtures.theta_loc;
      left = Physical.Scan (Fixtures.relation_a ());
      right = Physical.Scan (Fixtures.relation_b ());
    }

let test_fingerprint () =
  let fp = Physical.fingerprint in
  Alcotest.(check string) "stable across constructions"
    (fp (paper_plan ()))
    (fp (paper_plan ()));
  Alcotest.(check bool) "16 hex digits" true
    (String.length (fp (paper_plan ())) = 16
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
         (fp (paper_plan ())));
  Alcotest.(check bool) "join kind changes the fingerprint" true
    (fp (paper_plan ()) <> fp (paper_plan ~kind:Nj.Full ()));
  (* runtime knobs are not part of the plan shape *)
  Alcotest.(check string) "parallelism is not part of the shape"
    (fp (paper_plan ()))
    (fp (paper_plan ~parallelism:4 ()));
  Alcotest.(check string) "sanitize is not part of the shape"
    (fp (paper_plan ()))
    (fp (paper_plan ~sanitize:true ()))

(* --- the structured query log ------------------------------------------- *)

module Qlog = Tpdb_obs.Qlog

let sample_record ?(fingerprint = "00000000deadbeef") ?(total_ms = 12.5)
    ?(slow = false) () =
  {
    Qlog.ts = "2026-08-08T12:00:00Z";
    query = "SELECT * FROM r LEFT TPJOIN s ON r.Loc = s.Loc";
    fingerprint;
    total_ms;
    rows_in = 5;
    rows_out = 7;
    wo = 2;
    wu = 2;
    wn = 3;
    prob_cache_hits = 4;
    prob_cache_misses = 3;
    spill_bytes = 0;
    spill_partitions = 0;
    sanitizer_ms = 0.25;
    stages = [ ("overlap", 1.5); ("lawau", 0.5); ("lawan", 0.75) ];
    gc =
      {
        Qlog.minor_words = 1000;
        major_words = 200;
        promoted_words = 50;
        major_collections = 1;
        top_heap_words = 4096;
      };
    slow;
    trace_file = (if slow then Some "slow-00000000deadbeef.trace.json" else None);
  }

let test_qlog_roundtrip () =
  let path = Filename.temp_file "tpdb-qlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let r1 = sample_record () in
  let r2 = sample_record ~total_ms:99.0 ~slow:true () in
  Qlog.append path r1;
  Qlog.append path r2;
  (* a foreign/corrupt line must not break loading *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json\n";
  close_out oc;
  match Qlog.load path with
  | [ a; b ] ->
      Alcotest.(check bool) "first record round-trips" true (a = r1);
      Alcotest.(check bool) "second record round-trips" true (b = r2);
      Alcotest.(check bool) "slow trace file kept" true
        (b.Qlog.trace_file = Some "slow-00000000deadbeef.trace.json")
  | records -> Alcotest.failf "expected 2 records, got %d" (List.length records)

let test_qlog_summarize () =
  let records =
    [
      sample_record ~fingerprint:"aaaaaaaaaaaaaaaa" ~total_ms:10.0 ();
      sample_record ~fingerprint:"aaaaaaaaaaaaaaaa" ~total_ms:30.0 ();
      sample_record ~fingerprint:"bbbbbbbbbbbbbbbb" ~total_ms:5.0 ~slow:true ();
    ]
  in
  let summary = Qlog.summarize records in
  Alcotest.(check bool) "header counts" true
    (contains summary "3 queries, 2 distinct plans");
  Alcotest.(check bool) "heaviest group first" true
    (let a = String.index summary 'a' in
     (* 'b' of the second fingerprint appears after group a's row *)
     let rec find_b i =
       if summary.[i] = 'b' then i else find_b (i + 1)
     in
     a < find_b a);
  Alcotest.(check bool) "group of two runs" true (contains summary "    2 ");
  (* by mean: the 20ms-mean group still leads the 5ms one *)
  let by_mean = Qlog.summarize ~by:`Mean records in
  Alcotest.(check bool) "mean ranking keeps group a first" true
    (contains by_mean "aaaaaaaaaaaaaaaa")

(* --- EXPLAIN ANALYZE annotations -------------------------------------- *)

let test_analyze_window_annotations () =
  let r = Fixtures.relation_a () and s = Fixtures.relation_b () in
  let plan =
    Physical.Tp_join
      {
        kind = Nj.Left;
        parallelism = 1;
        sanitize = false;
        prob_cache = true;
        safe_lineage = false;
        mem_budget = 0;
        est_rows = None;
        theta = Fixtures.theta_loc;
        left = Physical.Scan r;
        right = Physical.Scan s;
      }
  in
  let env = Relation.prob_env [ r; s ] in
  let result, report = Physical.analyze ~env plan in
  Alcotest.(check int) "rows" 7 (Relation.cardinality result);
  Alcotest.(check bool) "join node annotated with per-class windows" true
    (contains report "[windows: WO=2 WU=2 WN=3]");
  Alcotest.(check bool) "scan nodes carry no window annotation" true
    (String.split_on_char '\n' report
    |> List.for_all (fun line ->
           (not (contains line "Scan ")) || not (contains line "[windows")));
  Alcotest.(check bool) "join node annotated with prob-cache traffic" true
    (contains report "[prob-cache: ");
  Alcotest.(check bool) "analyze leaves no sink behind" true
    (not (Metrics.enabled ()))

(* --- properties: observation is invisible ------------------------------ *)

module Test = QCheck2.Test

let qtest = QCheck_alcotest.to_alcotest ~speed_level:`Quick

let prop_observed_equals_plain =
  Test.make ~name:"metrics+trace sinks never change join output" ~count:60
    ~print:Tp_gen.print_triple (Tp_gen.scenario_gen ())
    (fun (theta, r, s) ->
      List.for_all
        (fun kind ->
          List.for_all
            (fun jobs ->
              let options = Nj.options ~parallelism:jobs () in
              let plain = Nj.join ~options ~kind ~theta r s in
              let m = Metrics.create () and t = Trace.create () in
              let observed =
                Metrics.with_sink m (fun () ->
                    Trace.with_sink t (fun () ->
                        Nj.join ~options ~kind ~theta r s))
              in
              List.equal Tuple.equal (Relation.tuples plain)
                (Relation.tuples observed))
            [ 1; 2; 4 ])
        [ Nj.Inner; Nj.Anti; Nj.Left; Nj.Right; Nj.Full ])

let suite =
  [
    Alcotest.test_case "paper example: windows per class" `Quick
      test_paper_window_counts;
    Alcotest.test_case "parallel sweeps count the same windows" `Quick
      test_parallel_window_counts;
    Alcotest.test_case "paper example: pipeline counters" `Quick
      test_paper_pipeline_counters;
    Alcotest.test_case "partition size and busy-time metrics" `Quick
      test_partition_metrics;
    Alcotest.test_case "sanitizer work is counted" `Quick
      test_sanitizer_metrics;
    Alcotest.test_case "no sink: recording is a no-op" `Quick
      test_no_sink_is_noop;
    Alcotest.test_case "with_sink restores the previous sink" `Quick
      test_with_sink_restores;
    Alcotest.test_case "snapshot and reset" `Quick test_reset_and_snapshot;
    Alcotest.test_case "clock is monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "clock source and non-negative durations" `Quick
      test_clock_source_and_durations;
    Alcotest.test_case "Chrome trace export is valid" `Quick test_trace_export;
    Alcotest.test_case "trace JSON escapes hostile strings" `Quick
      test_trace_escaping;
    Alcotest.test_case "metrics JSON document" `Quick test_metrics_json;
    Alcotest.test_case "OpenMetrics export" `Quick test_openmetrics;
    Alcotest.test_case "per-span GC args and labeled histograms" `Quick
      test_trace_gc_args;
    Alcotest.test_case "no GC args without ~gc:true" `Quick test_gc_off_no_args;
    Alcotest.test_case "count_alloc splits minor/major/promoted" `Quick
      test_count_alloc_split;
    Alcotest.test_case "plan fingerprints" `Quick test_fingerprint;
    Alcotest.test_case "qlog JSONL round-trip" `Quick test_qlog_roundtrip;
    Alcotest.test_case "qlog summary" `Quick test_qlog_summarize;
    Alcotest.test_case "EXPLAIN ANALYZE window annotations" `Quick
      test_analyze_window_annotations;
    qtest prop_observed_equals_plain;
  ]
