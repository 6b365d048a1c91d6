(* tpdb_cli - command-line access to the library:

     tpdb_cli generate --dataset webkit --size 10000 --prefix /tmp/wk
     tpdb_cli query /tmp/wk_r.csv /tmp/wk_s.csv \
       "SELECT * FROM wk_r LEFT TPJOIN wk_s ON wk_r.File = wk_s.File"
     tpdb_cli experiment --figure fig5 --dataset webkit --scale quick *)

open Cmdliner
module E = Tpdb_experiments.Experiments

let dataset_conv =
  let parse = function
    | "webkit" -> Ok E.Webkit
    | "meteo" -> Ok E.Meteo
    | other -> Error (`Msg (Printf.sprintf "unknown dataset %S" other))
  in
  Arg.conv (parse, fun ppf d -> Format.pp_print_string ppf (E.dataset_name d))

let scale_conv =
  let parse = function
    | "quick" -> Ok E.Quick
    | "default" -> Ok E.Default
    | "paper" -> Ok E.Paper
    | other -> Error (`Msg (Printf.sprintf "unknown scale %S" other))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with E.Quick -> "quick" | E.Default -> "default" | E.Paper -> "paper")
  in
  Arg.conv (parse, print)

(* --- generate --- *)

let generate dataset size seed prefix db_dir =
  let r, s =
    match dataset with
    | E.Webkit -> Tpdb.Datasets.Webkit.pair ~seed size
    | E.Meteo -> Tpdb.Datasets.Meteo.pair ~seed size
  in
  match db_dir with
  | Some dir ->
      let db = Tpdb.Db.open_ dir in
      Tpdb.Db.save db r;
      Tpdb.Db.save db s;
      Printf.printf "stored r (%d tuples) and s (%d tuples) in %s\n"
        (Tpdb.Relation.cardinality r)
        (Tpdb.Relation.cardinality s)
        dir
  | None ->
      let path side = Printf.sprintf "%s_%s.csv" prefix side in
      Tpdb.Csv.save (path "r") r;
      Tpdb.Csv.save (path "s") s;
      Printf.printf "wrote %s (%d tuples) and %s (%d tuples)\n" (path "r")
        (Tpdb.Relation.cardinality r)
        (path "s")
        (Tpdb.Relation.cardinality s)

let generate_cmd =
  let dataset =
    Arg.(value & opt dataset_conv E.Webkit & info [ "dataset" ] ~docv:"NAME"
           ~doc:"Dataset family: webkit or meteo.")
  and size =
    Arg.(value & opt int 10_000 & info [ "size" ] ~docv:"N"
           ~doc:"Tuples per relation.")
  and seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  and prefix =
    Arg.(value & opt string "tpdb" & info [ "prefix" ] ~docv:"PREFIX"
           ~doc:"Output path prefix; writes PREFIX_r.csv and PREFIX_s.csv.")
  and db_dir =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Store into a binary database directory instead of CSV.")
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate a synthetic TP dataset pair (CSV or database directory).")
    Term.(const generate $ dataset $ size $ seed $ prefix $ db_dir)

(* --- query / check --- *)

let base_name path = Filename.remove_extension (Filename.basename path)

(* Typed failures (CSV loading, planning, parsing, sanitizer violations)
   all render through the analyzer's diagnostic format, on stderr. *)
let fail_diagnostic d =
  prerr_endline (Tpdb.Analyze.to_string d);
  exit 1

let fail_exn exn =
  match Tpdb.Analyze.diagnostic_of_exn exn with
  | Some d -> fail_diagnostic d
  | None -> raise exn

let load_catalog tables db_dir =
  let catalog = Tpdb.Catalog.create () in
  (try
     (match db_dir with
     | None -> ()
     | Some dir ->
         let db = Tpdb.Db.open_ dir in
         (* pick up statistics persisted by [tpdb_cli stats --db DIR] *)
         Tpdb.Catalog.set_stats_dir catalog dir;
         List.iter
           (fun name -> Tpdb.Catalog.register catalog (Tpdb.Db.load db name))
           (Tpdb.Db.list db));
     List.iter
       (fun path ->
         Tpdb.Catalog.register catalog
           (Tpdb.Csv.load ~name:(base_name path) path))
       tables
   with exn -> fail_exn exn);
  catalog

let plan_or_fail ?sanitize ?mem_budget catalog jobs sql =
  match Tpdb.Planner.plan ~parallelism:jobs ?sanitize ?mem_budget
          catalog
          (Tpdb.Parser.parse sql)
  with
  | plan -> plan
  | exception Tpdb.Planner.Plan_error msg ->
      fail_diagnostic
        (Tpdb.Analyze.diagnostic ~severity:Tpdb.Analyze.Error ~code:"plan" msg)
  | exception ((Tpdb.Parser.Parse_error _ | Tpdb.Lexer.Lex_error _) as exn) ->
      fail_exn exn

let print_diagnostics diags =
  List.iter (fun d -> print_endline (Tpdb.Analyze.to_string d)) diags

(* Installs the trace/metrics sinks requested on the command line, runs
   the thunk, then uninstalls the sinks and writes the output files —
   even when the run raises, so a failing query still leaves its partial
   trace behind. *)
let with_observability ~trace_out ~stats_out f =
  let trace = Option.map (fun _ -> Tpdb.Trace.create ()) trace_out in
  let metrics = Option.map (fun _ -> Tpdb.Metrics.create ()) stats_out in
  Option.iter Tpdb.Trace.install trace;
  Option.iter Tpdb.Metrics.install metrics;
  Fun.protect
    ~finally:(fun () ->
      (match (trace, trace_out) with
      | Some t, Some path ->
          Tpdb.Trace.uninstall ();
          Tpdb.Trace.save t path
      | _ -> ());
      match (metrics, stats_out) with
      | Some m, Some path ->
          Tpdb.Metrics.uninstall ();
          Tpdb.Metrics.save m path
      | _ -> ())
    f

(* The execution settings that are not part of the plan tree, printed
   above every EXPLAIN / EXPLAIN ANALYZE report. The optional sinks
   (openmetrics, qlog) only append a segment when requested, so existing
   expectations stay byte-identical. *)
let explain_header ~sanitize ~trace_out ~stats_out ~openmetrics_out ~qlog_out =
  let sink label = function Some path -> label ^ ": " ^ path | None -> label ^ ": off" in
  let opt label = function None -> "" | Some path -> "; " ^ label ^ ": " ^ path in
  Printf.sprintf "-- sanitize: %s; %s; %s%s%s"
    (if sanitize then "on" else "off")
    (sink "trace" trace_out)
    (sink "stats" stats_out)
    (opt "openmetrics" openmetrics_out)
    (opt "qlog" qlog_out)

let iso_utc () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* --slow-ms wins over the environment, mirroring --sanitize. *)
let slow_threshold = function
  | Some ms -> Some ms
  | None -> (
      match Sys.getenv_opt "TPDB_SLOW_MS" with
      | None -> None
      | Some s -> float_of_string_opt s)

let query tables db_dir explain_only analyze result_only jobs sanitize
    mem_budget_mb trace_out stats_out openmetrics_out qlog_out slow_ms sql =
  let catalog = load_catalog tables db_dir in
  let sanitize_flag = if sanitize then Some true else None in
  (* --mem-budget wins over TPDB_MEM_BUDGET (which Nj reads itself when
     the plan carries no budget), mirroring --slow-ms / TPDB_SLOW_MS. *)
  let mem_budget = Option.map (fun mb -> mb * 1024 * 1024) mem_budget_mb in
  let plan =
    plan_or_fail ?sanitize:sanitize_flag ?mem_budget catalog jobs sql
  in
  let sanitize_on = sanitize || Tpdb.Invariant.env_enabled () in
  let slow_ms = slow_threshold slow_ms in
  let header =
    explain_header ~sanitize:sanitize_on ~trace_out ~stats_out
      ~openmetrics_out ~qlog_out
  in
  (* The query log and the slow-query dump need a trace (stage times,
     the Chrome dump) and a metrics sink (counters) even when no --trace
     or --stats-json file was asked for. *)
  let want_trace = trace_out <> None || qlog_out <> None || slow_ms <> None in
  let want_metrics =
    stats_out <> None || openmetrics_out <> None || qlog_out <> None
    || slow_ms <> None
  in
  let trace =
    if want_trace then Some (Tpdb.Trace.create ~gc:true ()) else None
  in
  let metrics = if want_metrics then Some (Tpdb.Metrics.create ()) else None in
  Option.iter Tpdb.Trace.install trace;
  Option.iter Tpdb.Metrics.install metrics;
  (* Accounts one executed query: wall time, counters, stage times from
     the trace, GC deltas; appends the qlog record and dumps the Chrome
     trace of a slow query. [rows] projects the run's output cardinality
     out of whatever the runner returned. *)
  let run_logged ~rows run =
    (* Allocation words come from [Gc.minor_words]/[Gc.counters], which
       stay current without a collection; [Gc.quick_stat] only supplies
       collection counts and the heap high-water mark. *)
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let collections0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = Unix.gettimeofday () in
    let result = run () in
    let total_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    (match (metrics, trace) with
    | Some m, Some t when qlog_out <> None || slow_ms <> None ->
        let minor1 = Gc.minor_words () in
        let _, promoted1, major1 = Gc.counters () in
        let gc1 = Gc.quick_stat () in
        let slow =
          match slow_ms with Some thr -> total_ms >= thr | None -> false
        in
        let fp = Tpdb.Planner.fingerprint plan in
        let trace_file =
          match trace_out with
          | Some _ -> trace_out
          | None when slow ->
              let dir =
                match qlog_out with
                | Some p -> Filename.dirname p
                | None -> Filename.current_dir_name
              in
              let path =
                Filename.concat dir (Printf.sprintf "slow-%s.trace.json" fp)
              in
              Tpdb.Trace.save t path;
              Printf.eprintf
                "slow query: %.1f ms >= %.1f ms; trace written to %s\n%!"
                total_ms (Option.get slow_ms) path;
              Some path
          | None -> None
        in
        (match qlog_out with
        | None -> ()
        | Some qpath ->
            let words f1 f0 = int_of_float (f1 -. f0) in
            let get c = Tpdb.Metrics.get m c in
            let ms_of_ns ns = float_of_int ns /. 1e6 in
            Tpdb.Qlog.append qpath
              {
                Tpdb.Qlog.ts = iso_utc ();
                query = sql;
                fingerprint = fp;
                total_ms;
                rows_in = get Tpdb.Metrics.Tuples_in;
                rows_out = rows result;
                wo = get Tpdb.Metrics.Windows_overlapping;
                wu = get Tpdb.Metrics.Windows_unmatched;
                wn = get Tpdb.Metrics.Windows_negating;
                spill_bytes = get Tpdb.Metrics.Spill_bytes;
                spill_partitions = get Tpdb.Metrics.Spill_partitions;
                sanitizer_ms =
                  ms_of_ns
                    (Tpdb.Metrics.dist_stats m Tpdb.Metrics.Sanitizer_ns).sum;
                stages =
                  List.map
                    (fun (_cat, name, ns) -> (name, ms_of_ns ns))
                    (Tpdb.Trace.totals t);
                gc =
                  {
                    Tpdb.Qlog.minor_words = words minor1 minor0;
                    major_words = words major1 major0;
                    promoted_words = words promoted1 promoted0;
                    major_collections =
                      gc1.Gc.major_collections - collections0;
                    top_heap_words = gc1.Gc.top_heap_words;
                  };
                slow;
                trace_file;
              })
        | _ -> ());
    result
  in
  try
    Fun.protect
      ~finally:(fun () ->
        Tpdb.Trace.uninstall ();
        Tpdb.Metrics.uninstall ();
        (match (trace, trace_out) with
        | Some t, Some path -> Tpdb.Trace.save t path
        | _ -> ());
        (match (metrics, stats_out) with
        | Some m, Some path -> Tpdb.Metrics.save m path
        | _ -> ());
        match (metrics, openmetrics_out) with
        | Some m, Some path -> Tpdb.Metrics.save_openmetrics m path
        | _ -> ())
    @@ fun () ->
    if result_only then
      (* Nothing but the rendered relation: the byte-identity reference
         for the server's wire results (bench/CI diff them). *)
      Tpdb.Relation.print
        (run_logged ~rows:Tpdb.Relation.cardinality (fun () ->
             Tpdb.Planner.run plan))
    else if analyze then begin
      let result, report =
        run_logged
          ~rows:(fun (r, _) -> Tpdb.Relation.cardinality r)
          (fun () -> Tpdb.Planner.run_analyze plan)
      in
      print_endline header;
      print_endline report;
      print_endline "";
      Tpdb.Relation.print result
    end
    else begin
      print_endline header;
      print_endline (Tpdb.Planner.explain plan);
      (match Tpdb.Planner.check plan with
      | [] -> ()
      | diags ->
          print_endline "";
          print_diagnostics diags);
      if not explain_only then begin
        print_endline "";
        Tpdb.Relation.print
          (run_logged ~rows:Tpdb.Relation.cardinality (fun () ->
               Tpdb.Planner.run plan))
      end
    end
  with Tpdb.Invariant.Violation _ as exn -> fail_exn exn

let check tables db_dir jobs deep format sql =
  let catalog = load_catalog tables db_dir in
  let plan = plan_or_fail catalog jobs sql in
  let diags =
    if deep then Tpdb.Planner.check_deep plan else Tpdb.Planner.check plan
  in
  let errors = List.length (Tpdb.Analyze.errors diags) in
  (match format with
  | `Json -> print_endline (Tpdb.Analyze.to_json diags)
  | `Text ->
      print_diagnostics diags;
      let count severity =
        List.length
          (List.filter
             (fun d -> d.Tpdb.Analyze.severity = severity)
             diags)
      in
      let warnings = count Tpdb.Analyze.Warning in
      let notes = count Tpdb.Analyze.Note in
      if diags = [] then print_endline "ok: no issues found"
      else
        Printf.printf "%d error(s), %d warning(s)%s\n" errors warnings
          (if notes > 0 then Printf.sprintf ", %d note(s)" notes else ""));
  if errors > 0 then exit 1

let query_cmd =
  let tables =
    Arg.(value & opt_all file [] & info [ "table"; "t" ] ~docv:"CSV"
           ~doc:"TP relation to register (repeatable); its name is the file \
                 basename.")
  and db_dir =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Register every relation of a database directory.")
  and explain_only =
    Arg.(value & flag & info [ "explain" ] ~doc:"Print the plan, do not run.")
  and analyze =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Run and annotate the plan with per-node rows and timings.")
  and result_only =
    Arg.(value & flag & info [ "result-only" ]
           ~doc:"Print only the rendered result relation — no header, plan \
                 or diagnostics. Byte-identical to what $(b,tpdb_cli \
                 connect --query) prints for the same query against a \
                 server over the same data.")
  and jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Partition the window sweep of every equi-join across N \
                 domains (default 1 = sequential). Joins without an equality \
                 atom fall back to the sequential sweep.")
  and sanitize =
    Arg.(value & flag & info [ "sanitize" ]
           ~doc:"Run the TPSan window-invariant checks during execution \
                 (also enabled by TPDB_SANITIZE=1): every join asserts the \
                 paper's window lemmas on its live streams and fails fast \
                 on a violation.")
  and mem_budget =
    Arg.(value & opt (some int) None & info [ "mem-budget" ] ~docv:"MB"
           ~doc:"Working-set budget in megabytes for the out-of-core join \
                 executor (also read from TPDB_MEM_BUDGET; the flag wins). \
                 An equi-join whose estimated working set exceeds it \
                 hash-partitions both inputs to compressed columnar heap \
                 files and sweeps one partition pair at a time through a \
                 budget-sized buffer pool — identical output, bounded \
                 memory. Joins without an equality atom ignore it.")
  and trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a span per operator, sweep phase and parallel \
                 partition and write a Chrome trace-event JSON file, \
                 loadable in chrome://tracing or Perfetto.")
  and stats_out =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Collect the pipeline's runtime counters (tuples, windows \
                 per class, partition sizes, sanitizer work) and write \
                 them as JSON, distributions with p50/p90/p99 quantiles.")
  and openmetrics_out =
    Arg.(value & opt (some string) None
           & info [ "stats-openmetrics" ] ~docv:"FILE"
           ~doc:"Write the same runtime metrics in the OpenMetrics \
                 (Prometheus) text format: counters as counter families, \
                 distributions as summaries with 0.5/0.9/0.99 quantiles.")
  and qlog_out =
    Arg.(value & opt (some string) None & info [ "qlog" ] ~docv:"FILE"
           ~doc:"Append one JSONL record for the executed query: plan \
                 fingerprint, per-stage wall times, window-class counts, \
                 rows in/out, spill traffic, sanitizer time and GC \
                 deltas. Summarize with $(b,tpdb_cli qlog FILE).")
  and slow_ms =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Slow-query threshold in milliseconds (also read from \
                 TPDB_SLOW_MS; the flag wins). A query at or above it is \
                 marked slow in the qlog and its full Chrome trace is \
                 written next to the log (slow-FINGERPRINT.trace.json) \
                 when no --trace file was given.")
  and sql =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"TP-SQL query text.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Run a TP-SQL query over CSV files and/or a database directory.")
    Term.(const query $ tables $ db_dir $ explain_only $ analyze $ result_only
          $ jobs $ sanitize $ mem_budget $ trace_out
          $ stats_out $ openmetrics_out $ qlog_out $ slow_ms $ sql)

(* --- qlog: summarize a structured query log --- *)

let qlog_run file top by =
  let records = try Tpdb.Qlog.load file with Sys_error msg ->
    prerr_endline msg;
    exit 1
  in
  if records = [] then print_endline "empty query log"
  else print_string (Tpdb.Qlog.summarize ~top ~by records)

let qlog_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"A JSONL query log written by $(b,query --qlog).")
  and top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"Show the N heaviest plan groups (default 10).")
  and by =
    let order = Arg.enum [ ("total", `Total); ("mean", `Mean) ] in
    Arg.(value & opt order `Total & info [ "by" ] ~docv:"ORDER"
           ~doc:"Rank groups by total or mean wall time.")
  in
  Cmd.v
    (Cmd.info "qlog"
       ~doc:"Summarize a structured query log: queries grouped by plan \
             fingerprint with runs, slow count, total/mean wall time and \
             p50/p90/p99/max quantile columns.")
    Term.(const qlog_run $ file $ top $ by)

let check_cmd =
  let tables =
    Arg.(value & opt_all file [] & info [ "table"; "t" ] ~docv:"CSV"
           ~doc:"TP relation to register (repeatable); its name is the file \
                 basename.")
  and db_dir =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Register every relation of a database directory.")
  and jobs =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Intended parallelism; the analyzer warns when a join \
                 cannot use it.")
  and deep =
    Arg.(value & flag & info [ "deep" ]
           ~doc:"Also run the statistics-driven deep passes: abstract \
                 temporal/probability bounds, the static safe-plan \
                 classification, applied planner rewrites (\xce\xb8 folds, \
                 empty-subplan prunes, join reorders) and cost estimates. \
                 Adds note-severity diagnostics; the exit status still \
                 reflects errors only.")
  and format =
    let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
    Arg.(value & opt fmt `Text & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: text (one line per diagnostic plus a \
                 summary) or json (an array of objects with stable \
                 severity/code/path/message fields).")
  and sql =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY"
           ~doc:"TP-SQL query text.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Statically analyze a TP-SQL query without running it: plan it, \
             infer column types, and report \xce\xb8 type errors, \
             unsatisfiable conditions and suspicious plan shapes. Exits \
             non-zero when an error-severity diagnostic is found.")
    Term.(const check $ tables $ db_dir $ jobs $ deep $ format $ sql)

(* --- stats: compute and persist per-relation statistics --- *)

let stats_run tables db_dir out =
  let catalog = load_catalog tables db_dir in
  let names = Tpdb.Catalog.names catalog in
  if names = [] then begin
    prerr_endline "no relations registered; pass --table and/or --db";
    exit 1
  end;
  (* Where to persist: --out wins, else the database directory. CSV-only
     invocations without --out just print. *)
  let out_dir = match out with Some _ -> out | None -> db_dir in
  (match out_dir with
  | Some dir when not (Sys.file_exists dir) -> (
      try Sys.mkdir dir 0o755
      with Sys_error msg ->
        prerr_endline ("cannot create stats directory: " ^ msg);
        exit 1)
  | _ -> ());
  List.iteri
    (fun i name ->
      if i > 0 then print_endline "";
      (* always recompute from the registered data — the whole point of
         the command is refreshing stale persisted statistics *)
      let s = Tpdb.Stats.of_relation (Tpdb.Catalog.find_exn catalog name) in
      print_endline (Tpdb.Stats.to_string s);
      match out_dir with
      | None -> ()
      | Some dir ->
          let path = Tpdb.Stats.file ~dir name in
          Tpdb.Stats.save s path;
          Printf.printf "wrote %s\n" path)
    names

let stats_cmd =
  let tables =
    Arg.(value & opt_all file [] & info [ "table"; "t" ] ~docv:"CSV"
           ~doc:"TP relation to profile (repeatable); its name is the file \
                 basename.")
  and db_dir =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Profile every relation of a database directory; statistics \
                 are persisted there (NAME.stats) unless --out overrides.")
  and out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory to write NAME.stats files into (created if \
                 missing). Without --out or --db, statistics are printed \
                 but not persisted.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Compute per-relation statistics — cardinality, per-column \
             distinct counts, interval histograms and sample, probability \
             moments, duplicate-freeness — and persist them for the \
             planner's cost model (EXPLAIN est rows/cost, join ordering, \
             check --deep).")
    Term.(const stats_run $ tables $ db_dir $ out)

(* --- experiment --- *)

let experiment figure dataset scale =
  let points =
    match figure with
    | "fig5" -> E.fig5 ~scale dataset
    | "fig6" -> E.fig6 ~scale dataset
    | "fig7" -> E.fig7 ~scale dataset
    | "nj-paper" -> E.nj_paper_scale dataset
    | "selectivity" -> E.selectivity_sweep ()
    | "skew" -> E.skew_sweep ()
    | "parallel" -> E.parallel_sweep ~scale dataset
    | other ->
        prerr_endline ("unknown figure: " ^ other);
        exit 1
  in
  E.print_points
    ~header:(Printf.sprintf "%s (%s)" figure (E.dataset_name dataset))
    points

let experiment_cmd =
  let figure =
    Arg.(value & opt string "fig7" & info [ "figure" ] ~docv:"FIG"
           ~doc:"fig5 | fig6 | fig7 | nj-paper | selectivity | skew | \
                 parallel.")
  and dataset =
    Arg.(value & opt dataset_conv E.Webkit & info [ "dataset" ] ~docv:"NAME"
           ~doc:"webkit or meteo.")
  and scale =
    Arg.(value & opt scale_conv E.Default & info [ "scale" ] ~docv:"SCALE"
           ~doc:"quick, default or paper.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Re-run one of the paper's experiments.")
    Term.(const experiment $ figure $ dataset $ scale)

(* --- render: draw the Fig.-2-style join picture --- *)

let render tables db_dir left right on width =
  let catalog = load_catalog tables db_dir in
  let get name =
    match Tpdb.Catalog.find catalog name with
    | Some r -> r
    | None ->
        prerr_endline ("unknown relation " ^ name);
        exit 1
  in
  let r = get left and s = get right in
  let column rel name =
    match Tpdb.Schema.column_index (Tpdb.Relation.schema rel) name with
    | Some i -> i
    | None ->
        prerr_endline
          (Printf.sprintf "unknown column %s in %s" name (Tpdb.Relation.name rel));
        exit 1
  in
  let theta =
    match String.split_on_char '=' on with
    | [ lcol; rcol ] ->
        Tpdb.Theta.eq (column r (String.trim lcol)) (column s (String.trim rcol))
    | _ ->
        prerr_endline "condition must be of the form LEFTCOL=RIGHTCOL";
        exit 1
  in
  print_string (Tpdb.Render.join_picture ~max_width:width ~theta r s)

let render_cmd =
  let tables =
    Arg.(value & opt_all file [] & info [ "table"; "t" ] ~docv:"CSV"
           ~doc:"TP relation to register (repeatable).")
  and db_dir =
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Register every relation of a database directory.")
  and left =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LEFT"
           ~doc:"Left relation name.")
  and right =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"RIGHT"
           ~doc:"Right relation name.")
  and on =
    Arg.(required & opt (some string) None & info [ "on" ] ~docv:"L=R"
           ~doc:"Equality condition, e.g. Loc=Loc.")
  and width =
    Arg.(value & opt int 60 & info [ "width" ] ~docv:"N"
           ~doc:"Maximum timeline width in characters.")
  in
  Cmd.v
    (Cmd.info "render"
       ~doc:"Draw the generalized windows of LEFT w.r.t. RIGHT as an ASCII \
             timeline (cf. the paper's Fig. 2).")
    Term.(const render $ tables $ db_dir $ left $ right $ on $ width)

(* --- fuzz: differential oracle fuzzing --- *)

(* Runs random TP scenarios through Oracle.check — the snapshot-semantics
   ground truth diffed against Nj.join, and against Nj.set_op for the
   three set operations on the same (r, s), under every shipped execution
   configuration — until the time budget runs out. Each case derives its
   own seed from the base seed, so any failure reproduces with
   [--seed CASE_SEED --seconds 0] regardless of how long the original
   run was. Failing cases are written to the artifact directory as
   loadable CSV pairs plus a divergence report. *)
let fuzz seconds seed out trace_out stats_out =
  let budget_ns = int_of_float (seconds *. 1e9) in
  (if not (Sys.file_exists out) then
     try Sys.mkdir out 0o755
     with Sys_error msg ->
       prerr_endline ("cannot create artifact directory: " ^ msg);
       exit 1);
  let failures = ref 0 and cases = ref 0 in
  let run_case case_seed =
    incr cases;
    let rand = Random.State.make [| case_seed |] in
    let theta, r, s =
      QCheck2.Gen.generate1 ~rand (Tp_gen.scenario_gen ~nulls:true ())
    in
    match Tpdb.Oracle.check ~set_kinds:Tpdb.Nj.all_set_kinds ~theta r s with
    | [] -> ()
    | divergences ->
        incr failures;
        let path name = Filename.concat out name in
        let prefix = Printf.sprintf "seed-%d" case_seed in
        Tpdb.Csv.save (path (prefix ^ "-r.csv")) r;
        Tpdb.Csv.save (path (prefix ^ "-s.csv")) s;
        let report =
          String.concat "\n"
            (Printf.sprintf "case seed: %d" case_seed
            :: List.map (Tpdb.Oracle.report ~theta) divergences)
          ^ "\n\n" ^ Tpdb.Oracle.repro ~theta r s
        in
        let oc = open_out (path (prefix ^ "-report.txt")) in
        output_string oc report;
        close_out oc;
        Printf.eprintf "DIVERGENCE (seed %d): %d configuration(s) disagree; \
                        artifacts in %s/%s-*\n%!"
          case_seed (List.length divergences) out prefix
  in
  with_observability ~trace_out ~stats_out (fun () ->
      (* Always run the base seed itself, even with --seconds 0: that is
         how a failing seed from a previous run is replayed. *)
      run_case seed;
      let start = Tpdb.Obs_clock.now_ns () in
      let elapsed () = Tpdb.Obs_clock.now_ns () - start in
      let i = ref 1 in
      while elapsed () < budget_ns do
        run_case (seed + !i);
        incr i
      done);
  Printf.printf "fuzz: %d case(s), %d divergence(s)%s\n" !cases !failures
    (if !failures = 0 then "" else "; artifacts in " ^ out);
  if !failures > 0 then exit 1

let fuzz_cmd =
  let seconds =
    Arg.(value & opt float 5.0 & info [ "seconds" ] ~docv:"N"
           ~doc:"Time budget; generates fresh cases until it is spent. 0 \
                 runs exactly one case (the base seed) — use with --seed \
                 to replay a failure.")
  and seed =
    Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Base seed; case $(i)i$(b,) uses SEED+i, so any failure is \
                 reproducible from the seed printed in its report alone.")
  and out =
    Arg.(value & opt string "fuzz-artifacts" & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for failing-case artifacts: the two input \
                 relations as loadable CSV files plus a divergence report \
                 per failing seed.")
  and trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file covering the whole \
                 fuzzing run (oracle evaluations show as \"oracle\" spans).")
  and stats_out =
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE"
           ~doc:"Write the run's metrics as JSON, including the \
                 oracle_evals / oracle_comparisons / oracle_mismatches \
                 counters and the oracle_eval_ns distribution.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the TP join pipeline against the differential \
             snapshot-semantics oracle: each random scenario is evaluated \
             point by point (exact BDD probabilities) and diffed against \
             every join kind and set operation under every execution \
             configuration (parallelism, sanitizer, spilling and the \
             statically safe probability path); non-zero exit and CSV \
             artifacts on any divergence.")
    Term.(const fuzz $ seconds $ seed $ out $ trace_out $ stats_out)

(* --- store: CSV -> database directory --- *)

let store db_dir csvs =
  let db = Tpdb.Db.open_ db_dir in
  List.iter
    (fun path ->
      let relation = Tpdb.Csv.load ~name:(base_name path) path in
      Tpdb.Db.save db relation;
      Printf.printf "stored %s (%d tuples)\n" (base_name path)
        (Tpdb.Relation.cardinality relation))
    csvs

let store_cmd =
  let db_dir =
    Arg.(required & opt (some string) None & info [ "db" ] ~docv:"DIR"
           ~doc:"Database directory (created if missing).")
  and csvs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"CSV"
           ~doc:"CSV files to import; each becomes a relation named after \
                 its basename.")
  in
  Cmd.v
    (Cmd.info "store" ~doc:"Import CSV relations into a database directory.")
    Term.(const store $ db_dir $ csvs)

(* --- connect: client for a running tpdb_server --- *)

let connect_endpoint socket host port =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | Some _, Some _ ->
      prerr_endline "connect: --socket and --port are mutually exclusive";
      exit 2
  | None, None ->
      prerr_endline "connect: one of --socket or --port is required";
      exit 2

let connect_exec client verbose sql =
  let r = Tpdb.Server_client.query client sql in
  (* stdout carries exactly the wire result (CLI-identical bytes);
     cache provenance goes to stderr so diffs stay clean. *)
  print_string r.Tpdb.Server_client.text;
  flush stdout;
  if verbose then
    Printf.eprintf "-- rows: %d; plan cache: %s; result cache: %s\n%!"
      r.Tpdb.Server_client.rows
      (if r.Tpdb.Server_client.plan_cached then "hit" else "miss")
      (if r.Tpdb.Server_client.result_cached then "hit" else "miss")

let connect_repl client verbose =
  let interactive = Unix.isatty Unix.stdin in
  let prompt () =
    if interactive then begin
      print_string "tpdb> ";
      flush stdout
    end
  in
  let handle_line line =
    match String.trim line with
    | "" -> ()
    | {|\q|} | {|\quit|} -> raise Exit
    | {|\stats|} -> print_endline (Tpdb.Server_client.stats client)
    | {|\metrics|} -> print_string (Tpdb.Server_client.openmetrics client)
    | {|\ping|} ->
        Tpdb.Server_client.ping client;
        print_endline "pong"
    | line when String.length line > 6 && String.sub line 0 6 = {|\load |} -> (
        match
          String.split_on_char '='
            (String.trim (String.sub line 6 (String.length line - 6)))
        with
        | [ name; path ] ->
            let ic = open_in path in
            let n = in_channel_length ic in
            let csv = really_input_string ic n in
            close_in ic;
            let version, rows =
              Tpdb.Server_client.load client ~name:(String.trim name) ~csv
            in
            Printf.printf "loaded %s: version %d, %d rows\n%!"
              (String.trim name) version rows
        | _ -> prerr_endline {|usage: \load NAME=FILE.csv|})
    | sql -> connect_exec client verbose sql
  in
  (try
     while true do
       prompt ();
       match input_line stdin with
       | exception End_of_file -> raise Exit
       | line -> (
           try handle_line line with
           | Tpdb.Server_client.Server_overloaded m ->
               Printf.eprintf "overloaded: %s\n%!" m
           | Tpdb.Server_client.Server_error (code, m) ->
               Printf.eprintf "error (%s): %s\n%!"
                 (Tpdb.Server_protocol.error_code_name code)
                 m
           | Sys_error m -> Printf.eprintf "error: %s\n%!" m)
     done
   with Exit -> ());
  if interactive then print_newline ()

let connect socket host port sql_opt loads stats openmetrics ping verbose =
  let endpoint = connect_endpoint socket host port in
  let client =
    try Tpdb.Server_client.connect ~client:"tpdb_cli" endpoint
    with Unix.Unix_error (err, _, _) ->
      Printf.eprintf "connect: %s\n%!" (Unix.error_message err);
      exit 1
  in
  Fun.protect ~finally:(fun () -> Tpdb.Server_client.close client)
  @@ fun () ->
  try
    List.iter
      (fun spec ->
        match String.split_on_char '=' spec with
        | [ name; path ] ->
            let ic = open_in path in
            let n = in_channel_length ic in
            let csv = really_input_string ic n in
            close_in ic;
            let version, rows = Tpdb.Server_client.load client ~name ~csv in
            Printf.eprintf "loaded %s: version %d, %d rows\n%!" name version
              rows
        | _ ->
            prerr_endline "connect: --load expects NAME=FILE.csv";
            exit 2)
      loads;
    if ping then begin
      Tpdb.Server_client.ping client;
      print_endline "pong"
    end;
    if stats then print_endline (Tpdb.Server_client.stats client);
    if openmetrics then print_string (Tpdb.Server_client.openmetrics client);
    match sql_opt with
    | Some sql -> connect_exec client verbose sql
    | None ->
        if not (ping || stats || openmetrics || loads <> []) then
          connect_repl client verbose
  with
  | Tpdb.Server_client.Server_overloaded m ->
      Printf.eprintf "overloaded: %s\n%!" m;
      exit 3
  | Tpdb.Server_client.Server_error (code, m) ->
      Printf.eprintf "error (%s): %s\n%!"
        (Tpdb.Server_protocol.error_code_name code)
        m;
      exit 1

let connect_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of the server.")
  and host =
    Arg.(value & opt string "" & info [ "host" ] ~docv:"HOST"
           ~doc:"Server IP address (default loopback); used with --port.")
  and port =
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port of the server.")
  and sql =
    Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"QUERY"
           ~doc:"Run one query and print its result — byte-identical to \
                 $(b,tpdb_cli query --result-only) over the same data.")
  and loads =
    Arg.(value & opt_all string [] & info [ "load" ] ~docv:"NAME=CSV"
           ~doc:"LOAD a CSV file as relation NAME before anything else \
                 (repeatable).")
  and stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the server's JSON stats snapshot.")
  and openmetrics =
    Arg.(value & flag & info [ "openmetrics" ]
           ~doc:"Print the server's OpenMetrics exposition.")
  and ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip a PING.")
  and verbose =
    Arg.(value & flag & info [ "verbose"; "v" ]
           ~doc:"Report rows and cache hits on stderr after each query.")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Connect to a running tpdb_server. With --query (or --stats, \
             --openmetrics, --ping, --load) runs one command and exits; \
             with none, reads queries from stdin (backslash commands: \
             \\\\load NAME=FILE, \\\\stats, \\\\metrics, \\\\ping, \
             \\\\quit).")
    Term.(const connect $ socket $ host $ port $ sql $ loads $ stats
          $ openmetrics $ ping $ verbose)

let () =
  let info =
    Cmd.info "tpdb_cli" ~version:"1.0.0"
      ~doc:"Temporal-probabilistic outer and anti joins (ICDE 2019 reproduction)."
  in
  exit (Cmd.eval (Cmd.group info
       [ generate_cmd; query_cmd; connect_cmd; check_cmd; stats_cmd;
         store_cmd; render_cmd; experiment_cmd; fuzz_cmd; qlog_cmd ]))
