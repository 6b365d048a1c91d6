(* tpdb_perf — the benchmark behind BENCHMARK.json. One process runs one
   workload for a fixed time and prints one JSON object as the last line
   of its standard output:

     tpdb_perf.exe --workload meteo-oneshot --seed 7 --seconds 20 \
       --trace 0 --out .bench_out

   --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
   alternates untraced and traced requests and reports the per-layer
   ledger: every layer is timed from here, around calls into its public
   functions, and no span is added inside the library. perfbench/README.md
   describes the workloads, the metrics and the ledger's slack. *)

module T = Tpdb

let now_ns = T.Obs_clock.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* How many times the set-up is repeated; setup_s is their median. *)
let setups = 4

(* The most ledger.unattributed_pct may read before the traced run warns. *)
let ledger_slack_pct = 5.0

(* ---------- command line ---------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME meteo-oneshot, webkit-spill or server-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--out", Arg.Set_string out, "DIR inputs, spill files, traces");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tpdb_perf.exe --workload NAME --seed N --seconds S --trace 0|1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; out = !out }

(* ---------- samples ---------- *)

(* Nearest-rank quantile; 0 on an empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.0
let ratio hits misses = if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)

(* ---------- the per-layer ledger ---------- *)

(* One traced request's per-layer sums — milliseconds ("_ms"), million
   minor words of the calling domain ("_mw") and counts — by key. *)
type scope = { req : int; sums : (string, float ref) Hashtbl.t }

let add sc key v =
  match Hashtbl.find_opt sc.sums key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add sc.sums key (ref v)

let count sc key v = Option.iter (fun sc -> add sc key v) sc
let sums_of sc = Hashtbl.fold (fun key v acc -> (key, !v) :: acc) sc.sums []

(* Runs [f] as layer [name]: with a scope, inside a Chrome-trace span
   carrying the request id, adding its wall time and minor words to the
   scope; without one, untouched. *)
let layer sc name f =
  match sc with
  | None -> f ()
  | Some sc ->
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let r =
        T.Trace.with_span ~cat:"perfbench"
          ~args:[ ("req", string_of_int sc.req) ]
          name f
      in
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      add sc (name ^ "_ms") (ms_of_ns (t1 - t0));
      add sc (name ^ "_mw") ((w1 -. w0) /. 1e6);
      r

(* The span around one request's own timed path. *)
let request_span sc f =
  T.Trace.with_span ~cat:"perfbench"
    ~args:[ ("req", Option.fold ~none:"-" ~some:(fun sc -> string_of_int sc.req) sc) ]
    "request" f

(* Every traced request's value of every key. A workload's requests all
   record the same keys. *)
let ledger : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let record sums =
  List.iter
    (fun (key, v) ->
      match Hashtbl.find_opt ledger key with
      | Some l -> l := v :: !l
      | None -> Hashtbl.add ledger key (ref [ v ]))
    sums

let values key = match Hashtbl.find_opt ledger key with None -> [] | Some l -> !l
let traced_requests () = List.length (values "request_ms")

let per_request key = median (values key)
let total key = sum (values key)

(* ---------- workloads ---------- *)

type query = { kind : T.Nj.join_kind; sql : string }

(* The paper's Table II operators in the order one round runs them. *)
let queries ~r ~s ~col ~kinds =
  List.map
    (fun kind ->
      let op =
        match kind with
        | T.Nj.Anti -> "ANTIJOIN"
        | T.Nj.Left -> "LEFT TPJOIN"
        | T.Nj.Right -> "RIGHT TPJOIN"
        | T.Nj.Full -> "FULL TPJOIN"
        | T.Nj.Inner -> "TPJOIN"
      in
      { kind; sql = Printf.sprintf "SELECT * FROM %s %s %s ON %s.%s = %s.%s" r op s r col s col })
    kinds

let four = T.Nj.[ Anti; Left; Right; Full ]

type oneshot = {
  dataset : [ `Meteo | `Webkit ];
  size : int;  (** tuples per side *)
  col : string;
  theta : T.Theta.t;
  kinds : T.Nj.join_kind list;
  mem_budget : int;  (** bytes; 0 = in RAM *)
}

let meteo_oneshot =
  { dataset = `Meteo; size = 500; col = "Metric"; theta = T.Theta.eq 1 1; kinds = four; mem_budget = 0 }

let webkit_spill =
  {
    dataset = `Webkit;
    size = 4000;
    col = "File";
    theta = T.Theta.eq 0 0;
    kinds = [ T.Nj.Full ];
    mem_budget = 256 * 1024;
  }

(* Server-churn: Webkit pairs of this size, one per session. *)
let churn_size = 2000
let churn_sessions = 2

let ram_options = T.Nj.options ~sanitize:false ~mem_budget:0 ()
let render rel = Format.asprintf "%a" T.Relation.pp rel
let file_bytes path = (Unix.stat path).Unix.st_size

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* The layer probes of one traced query, run after the request's own
   timed path on the same domain: the window sweep alone (both sides for
   right and full outer), the in-RAM join, probability over its output
   lineages on a fresh cache, and — when the workload has a memory
   budget — the spilled join. *)
let probe sc ~theta ~mem_budget kind r s =
  let wo = ref 0 and wu = ref 0 and wn = ref 0 in
  let drain windows =
    Seq.iter
      (fun w ->
        match T.Window.kind w with
        | T.Window.Overlapping -> incr wo
        | T.Window.Unmatched -> incr wu
        | T.Window.Negating -> incr wn)
      windows
  in
  layer sc "windows.sweep" (fun () ->
      drain (T.Nj.windows_wuon ~options:ram_options ~theta r s);
      match kind with
      | T.Nj.Right | T.Nj.Full ->
          drain (T.Nj.windows_wuon ~options:ram_options ~theta:(T.Theta.swap theta) s r)
      | T.Nj.Inner | T.Nj.Anti | T.Nj.Left -> ());
  count sc "windows.wo" (float_of_int !wo);
  count sc "windows.wu" (float_of_int !wu);
  count sc "windows.wn" (float_of_int !wn);
  let out = layer sc "joins.join" (fun () -> T.Nj.join ~options:ram_options ~kind ~theta r s) in
  let env = T.Relation.prob_env [ r; s ] in
  layer sc "lineage.prob" (fun () ->
      let cache = T.Prob.Cache.create () in
      Array.iter
        (fun t -> ignore (T.Prob.Cache.compute cache env (T.Tuple.lineage t)))
        (T.Relation.to_array out));
  if mem_budget > 0 then
    layer sc "storage.spilled_join" (fun () ->
        let options = T.Nj.options ~sanitize:false ~mem_budget () in
        ignore (T.Nj.join ~options ~kind ~theta r s))

let metric_counter c = match T.Metrics.active () with Some m -> T.Metrics.get m c | None -> 0

(* What one one-shot request reports back from its process. *)
type outcome = {
  latency_ns : int;
  load_ns : int;
  digests : Digest.t list;  (** of the rendered results, in query order *)
  rows : int;
  spill_partitions : int;
  rss_mb : float;  (** the request process's VmHWM *)
  sums : (string * float) list;  (** the traced request's ledger scope *)
  trace : string option;  (** the traced request's Chrome trace *)
}

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  find ()

(* One one-shot request: every query of the workload as
   [tpdb_cli query --result-only] runs it — load both CSVs, parse, plan,
   run, render — then, when traced, the layer probes. *)
let oneshot_request w ~rpath ~spath ~queries sc trace_sink =
  let t0 = now_ns () in
  let load_ns = ref 0 and spill = ref 0 and rows = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  let ran =
    request_span sc (fun () ->
        List.map
          (fun q ->
            let l0 = now_ns () in
            let r, s =
              layer sc "relation.csv_load" (fun () ->
                  (T.Csv.load ~name:"r" rpath, T.Csv.load ~name:"s" spath))
            in
            load_ns := !load_ns + (now_ns () - l0);
            let catalog = T.Catalog.create () in
            T.Catalog.register catalog r;
            T.Catalog.register catalog s;
            let ast = layer sc "query.parse" (fun () -> T.Parser.parse q.sql) in
            let plan =
              layer sc "query.plan" (fun () ->
                  T.Planner.plan ~sanitize:false ~mem_budget:w.mem_budget catalog ast)
            in
            let cache = T.Prob.Cache.stats (T.Prob.Cache.domain ()) in
            let p0 = metric_counter T.Metrics.Spill_partitions in
            let b0 = metric_counter T.Metrics.Spill_bytes in
            let h0 = metric_counter T.Metrics.Pool_hits in
            let m0 = metric_counter T.Metrics.Pool_misses in
            let rel = layer sc "query.exec" (fun () -> T.Planner.run plan) in
            let cache' = T.Prob.Cache.stats (T.Prob.Cache.domain ()) in
            hits := !hits + cache'.hits - cache.hits;
            misses := !misses + cache'.misses - cache.misses;
            let parts = metric_counter T.Metrics.Spill_partitions - p0 in
            spill := !spill + parts;
            count sc "storage.spill_partitions" (float_of_int parts);
            count sc "storage.spill_bytes" (float_of_int (metric_counter T.Metrics.Spill_bytes - b0));
            count sc "storage.pool_hits" (float_of_int (metric_counter T.Metrics.Pool_hits - h0));
            count sc "storage.pool_misses" (float_of_int (metric_counter T.Metrics.Pool_misses - m0));
            let text = layer sc "relation.render" (fun () -> render rel) in
            count sc "relation.render_bytes" (float_of_int (String.length text));
            rows := !rows + T.Relation.cardinality rel;
            (q, r, s, text))
          queries)
  in
  let latency_ns = now_ns () - t0 in
  count sc "lineage.prob_cache_hits" (float_of_int !hits);
  count sc "lineage.prob_cache_misses" (float_of_int !misses);
  count sc "request_ms" (ms_of_ns latency_ns);
  let digests = List.map (fun (_, _, _, text) -> Digest.string text) ran in
  Option.iter
    (fun _ -> List.iter (fun (q, r, s, _) -> probe sc ~theta:w.theta ~mem_budget:w.mem_budget q.kind r s) ran)
    sc;
  {
    latency_ns;
    load_ns = !load_ns;
    digests;
    rows = !rows;
    spill_partitions = !spill;
    rss_mb = peak_rss_mb ();
    sums = Option.fold ~none:[] ~some:sums_of sc;
    trace = Option.map (fun _ -> T.Trace.to_json trace_sink) sc;
  }

(* Every one-shot request runs in a forked process, so it starts from
   the state a fresh [tpdb_cli] process has — an empty lineage hash-cons
   table and probability cache, one domain — and the parent keeps nothing
   of it. OCaml forbids the fork once a domain has been spawned, so the
   one-shot workloads spawn none. *)
let fork_child (f : unit -> 'a) =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      (pid, rd)

(* The result of a child from [fork_child f], which must return no
   closures. Waits for the child to end. *)
let collect (pid, rd) : ('a, string) result =
  let ic = Unix.in_channel_of_descr rd in
  let r =
    try (Marshal.from_channel ic : ('a, string) result)
    with End_of_file | Failure _ -> Error "the request process died"
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  r

(* The closed loop of the one-shot workloads: [clients] forked jobs in
   flight; whenever one ends, [finish] gets its result and [next] may
   start another. Two clients keep both vCPUs of a 2-vCPU machine busy:
   with one of them idle, a request's time follows whatever else the
   host runs beside it, in phases 1.45 times apart. *)
let clients = 2

let closed_loop ~(next : unit -> (unit -> 'a) option) ~(finish : ('a, string) result -> unit) =
  let inflight = ref [] in
  let launch () =
    match next () with
    | Some job -> inflight := fork_child job :: !inflight
    | None -> ()
  in
  for _ = 1 to clients do
    launch ()
  done;
  while !inflight <> [] do
    let ready, _, _ =
      try Unix.select (List.map snd !inflight) [] [] (-1.0)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let child = List.find (fun (_, rd) -> rd = fd) !inflight in
        inflight := List.filter (fun c -> c != child) !inflight;
        finish (collect child);
        launch ())
      ready
  done

(* ---------- run state ---------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable latencies : float list;  (** ms, untraced requests *)
  mutable traced_latencies : float list;  (** ms, traced requests *)
  mutable loads : float list;  (** ms, untraced requests *)
  mutable rss_mb : float list;
  mutable rows : int;
  mutable wall_s : float;  (** the measured loop's wall time *)
  mutable setup_s : float list;
  mutable digests : string list;  (** reference digests, hex *)
  mutable record : (string * string) list;  (** workload facts for the sidecar *)
  mutable traces : string list;  (** Chrome traces of forked requests *)
}

let run =
  {
    attempted = 0;
    failed = 0;
    latencies = [];
    traced_latencies = [];
    loads = [];
    rss_mb = [];
    rows = 0;
    wall_s = 0.0;
    setup_s = [];
    digests = [];
    record = [];
    traces = [];
  }

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      run.failed <- run.failed + 1;
      if run.failed <= 5 then prerr_endline ("tpdb_perf: request failed: " ^ msg))
    fmt

let hex = Digest.to_hex

(* ---------- one-shot workloads ---------- *)

let run_oneshot args w trace_sink =
  let dir = Filename.concat args.out (Printf.sprintf "%s-%d" args.workload args.seed) in
  let paths k =
    let d = Filename.concat dir (Printf.sprintf "setup-%d" k) in
    (d, Filename.concat d "r.csv", Filename.concat d "s.csv")
  in
  let qs = queries ~r:"r" ~s:"s" ~col:w.col ~kinds:w.kinds in
  let check ~refs = function
    | Error e -> fail "%s" e
    | Ok (o : outcome) ->
        List.iteri
          (fun i d ->
            if not (String.equal d (List.nth refs i)) then
              fail "%s: result differs from the in-RAM Nj.join reference" (List.nth qs i).sql)
          o.digests;
        if w.mem_budget > 0 && o.spill_partitions <= 0 then fail "the join did not spill"
  in
  (* One set-up, in a process of its own so the parent interns no
     lineage: generate, write the CSVs, compute the reference — the same
     CSVs through the in-RAM sequential join, not through the planner —
     and run one warm-up request. *)
  let setup k () =
    let t0 = now_ns () in
    let d, rpath, spath = paths k in
    mkdir_p d;
    let r, s =
      match w.dataset with
      | `Meteo -> T.Datasets.Meteo.pair ~seed:args.seed w.size
      | `Webkit -> T.Datasets.Webkit.pair ~seed:args.seed w.size
    in
    T.Csv.save rpath r;
    T.Csv.save spath s;
    let r = T.Csv.load ~name:"r" rpath and s = T.Csv.load ~name:"s" spath in
    let refs =
      List.map
        (fun q -> Digest.string (render (T.Nj.join ~options:ram_options ~kind:q.kind ~theta:w.theta r s)))
        qs
    in
    let warm = oneshot_request w ~rpath ~spath ~queries:qs None trace_sink in
    (float_of_int (now_ns () - t0) /. 1e9, refs, warm)
  in
  let pending = ref (List.init setups (fun k -> setup (k + 1))) and refs = ref [] in
  closed_loop
    ~next:(fun () ->
      match !pending with
      | job :: rest ->
          pending := rest;
          Some job
      | [] -> None)
    ~finish:(function
      | Error e -> fail "set-up: %s" e
      | Ok (secs, r, warm) ->
          run.setup_s <- secs :: run.setup_s;
          refs := r;
          check ~refs:r (Ok warm));
  if !refs = [] then failwith "every set-up failed";
  let refs = !refs and _, rpath, spath = paths 1 in
  run.digests <- List.map hex refs;
  run.record <-
    [
      ("dataset", match w.dataset with `Meteo -> "meteo" | `Webkit -> "webkit");
      ("tuples_per_side", string_of_int w.size);
      ("csv_bytes_r", string_of_int (file_bytes rpath));
      ("csv_bytes_s", string_of_int (file_bytes spath));
      ("mem_budget", string_of_int w.mem_budget);
    ];
  let t0 = now_ns () in
  let deadline = t0 + int_of_float (args.seconds *. 1e9) in
  let i = ref 0 in
  let next () =
    if now_ns () >= deadline then None
    else begin
      let traced = args.trace && !i mod 2 = 1 in
      let sc = if traced then Some { req = !i; sums = Hashtbl.create 32 } else None in
      incr i;
      run.attempted <- run.attempted + 1;
      (* The child inherits the installed sink; the parent records nothing. *)
      if traced then T.Trace.install trace_sink else T.Trace.uninstall ();
      Some (fun () -> oneshot_request w ~rpath ~spath ~queries:qs sc trace_sink)
    end
  in
  let finish result =
    (match result with
    | Ok o ->
        let ms = ms_of_ns o.latency_ns in
        if o.sums <> [] then begin
          run.traced_latencies <- ms :: run.traced_latencies;
          record o.sums;
          Option.iter (fun t -> run.traces <- t :: run.traces) o.trace
        end
        else begin
          run.latencies <- ms :: run.latencies;
          run.loads <- ms_of_ns o.load_ns :: run.loads;
          run.rss_mb <- o.rss_mb :: run.rss_mb
        end;
        run.rows <- run.rows + o.rows
    | Error _ -> ());
    check ~refs result
  in
  closed_loop ~next ~finish;
  T.Trace.uninstall ();
  run.wall_s <- float_of_int (now_ns () - t0) /. 1e9

(* ---------- server-churn ---------- *)

(* A reusable barrier for the sessions; the last thread to arrive runs
   [action] before any is released. *)
type barrier = { m : Mutex.t; c : Condition.t; mutable arrived : int; mutable gen : int }

let barrier () = { m = Mutex.create (); c = Condition.create (); arrived = 0; gen = 0 }

let await b action =
  Mutex.lock b.m;
  let g = b.gen in
  b.arrived <- b.arrived + 1;
  if b.arrived = churn_sessions then begin
    action ();
    b.arrived <- 0;
    b.gen <- g + 1;
    Condition.broadcast b.c
  end
  else
    while b.gen = g do
      Condition.wait b.c b.m
    done;
  Mutex.unlock b.m

type session = {
  client : T.Server_client.t;
  r_name : string;
  s_name : string;
  r_path : string;
  s_path : string;
  r_csv : string;
  s_csv : string;
  r_rows : int;
  qs : query list;
  refs : string list;  (** digests of the in-process Planner.run replies *)
}

(* Plan- and result-cache hit ratios over the measured cycles. *)
let cache_ratios = ref (0.0, 0.0)

let session_names i = (Printf.sprintf "r%c" (Char.chr (97 + i)), Printf.sprintf "s%c" (Char.chr (97 + i)))

(* One cycle: LOAD one input (its version moves), the four operators
   re-planned and executed, then the same four answered from the result
   cache. Returns the replies in order for the check. *)
let churn_cycle ?(loaded = ignore) ss sc =
  let module C = T.Server_client in
  let t0 = now_ns () in
  let (loaded, replies), load_ns =
    request_span sc (fun () ->
        let l0 = now_ns () in
        let _, rows = layer sc "server.load_rtt" (fun () -> C.load ss.client ~name:ss.r_name ~csv:ss.r_csv) in
        let load_ns = now_ns () - l0 in
        loaded ();
        let executed = List.map (fun q -> layer sc "server.query_rtt" (fun () -> C.query ss.client q.sql)) ss.qs in
        let hits = List.map (fun q -> layer sc "server.hit_rtt" (fun () -> C.query ss.client q.sql)) ss.qs in
        ((rows, executed @ hits), load_ns))
  in
  let latency_ns = now_ns () - t0 in
  count sc "request_ms" (ms_of_ns latency_ns);
  (latency_ns, load_ns, loaded, replies)

let check_cycle ss (loaded, replies) =
  let module C = T.Server_client in
  if loaded <> ss.r_rows then fail "LOAD %s reported %d rows, expected %d" ss.r_name loaded ss.r_rows;
  let n = List.length ss.qs in
  List.iteri
    (fun i (res : C.result) ->
      let q = List.nth ss.qs (i mod n) in
      let hit = i >= n in
      if not (String.equal (Digest.string res.C.text) (List.nth ss.refs (i mod n))) then
        fail "%s: reply differs from the in-process Planner.run reference" q.sql;
      if res.C.plan_cached <> hit || res.C.result_cached <> hit then
        fail "%s: plan_cached=%b result_cached=%b, the script expects %b" q.sql res.C.plan_cached
          res.C.result_cached hit)
    replies;
  List.fold_left (fun acc (res : C.result) -> acc + res.C.rows) 0 replies

(* The traced cycle's layer probes, on a fresh domain: CSV parse and the
   store's LOAD path without the wire, then every query through parse,
   plan, run and render as a worker runs it, plus the join probes. *)
let churn_probe ss sc =
  Domain.join
    (Domain.spawn (fun () ->
         ignore (layer sc "relation.csv_load" (fun () -> T.Csv.load ~name:ss.r_name ss.r_path));
         let store = T.Server_store.create () in
         ignore (layer sc "server.store_load" (fun () -> T.Server_store.load_csv store ~name:ss.r_name ~csv:ss.r_csv));
         ignore (T.Server_store.load_csv store ~name:ss.s_name ~csv:ss.s_csv);
         let catalog = T.Server_store.snapshot store in
         let r = T.Catalog.find_exn catalog ss.r_name and s = T.Catalog.find_exn catalog ss.s_name in
         List.iter
           (fun q ->
             let ast = layer sc "query.parse" (fun () -> T.Parser.parse q.sql) in
             let plan = layer sc "query.plan" (fun () -> T.Planner.plan ~sanitize:false catalog ast) in
             let cache = T.Prob.Cache.stats (T.Prob.Cache.domain ()) in
             let rel = layer sc "query.exec" (fun () -> T.Planner.run plan) in
             let cache' = T.Prob.Cache.stats (T.Prob.Cache.domain ()) in
             count sc "lineage.prob_cache_hits" (float_of_int (cache'.hits - cache.hits));
             count sc "lineage.prob_cache_misses" (float_of_int (cache'.misses - cache.misses));
             let text = layer sc "relation.render" (fun () -> render rel) in
             count sc "relation.render_bytes" (float_of_int (String.length text));
             probe sc ~theta:(T.Theta.eq 0 0) ~mem_budget:0 q.kind r s)
           ss.qs))

let run_churn args trace_sink =
  let module C = T.Server_client in
  let dir = Filename.concat args.out (Printf.sprintf "%s-%d" args.workload args.seed) in
  mkdir_p dir;
  let start_server k =
    let sock = Filename.concat dir (Printf.sprintf "churn-%d.sock" k) in
    let config =
      {
        (T.Server.default_config (`Unix sock)) with
        T.Server.workers = churn_sessions;
        sanitize = Some false;
        mem_budget = None;
      }
    in
    (T.Server.start config, sock)
  in
  (* One session's share of a set-up. Generation and the reference run
     on a domain of their own, so the two sessions' shares run side by
     side; the reference is the byte-identity contract — what the same
     query prints in process through Planner.run. *)
  let session_setup sock i =
    let r_name, s_name = session_names i in
    let r_path = Filename.concat dir (r_name ^ ".csv") and s_path = Filename.concat dir (s_name ^ ".csv") in
    let qs = queries ~r:r_name ~s:s_name ~col:"File" ~kinds:four in
    let r_csv, s_csv, r_rows, refs =
      Domain.join
        (Domain.spawn (fun () ->
             let gen name seed = T.Datasets.Webkit.relation ~name ~seed churn_size in
             let r = gen r_name (args.seed + (10 * i)) and s = gen s_name (args.seed + (10 * i) + 1) in
             T.Csv.save r_path r;
             T.Csv.save s_path s;
             let catalog = T.Catalog.create () in
             T.Catalog.register catalog (T.Csv.load ~name:r_name r_path);
             T.Catalog.register catalog (T.Csv.load ~name:s_name s_path);
             let refs =
               List.map
                 (fun q ->
                   Digest.string (render (T.Planner.run (T.Planner.plan ~sanitize:false catalog (T.Parser.parse q.sql)))))
                 qs
             in
             (T.Csv.to_string r, T.Csv.to_string s, T.Relation.cardinality r, refs)))
    in
    let client = C.connect ~client:("perfbench-" ^ r_name) (`Unix sock) in
    ignore (C.load client ~name:r_name ~csv:r_csv);
    ignore (C.load client ~name:s_name ~csv:s_csv);
    let ss = { client; r_name; s_name; r_path; s_path; r_csv; s_csv; r_rows; qs; refs } in
    let _, _, loaded, replies = churn_cycle ss None in
    (ss, (loaded, replies))
  in
  (* Starts a server and sets every session up, one thread each, plus a
     warm-up cycle per session. *)
  let setup k =
    let t0 = now_ns () in
    let server, sock = start_server k in
    let results = Array.make churn_sessions None in
    List.init churn_sessions (fun i ->
        Thread.create (fun () -> results.(i) <- Some (try Ok (session_setup sock i) with e -> Error e)) ())
    |> List.iter Thread.join;
    run.setup_s <- (float_of_int (now_ns () - t0) /. 1e9) :: run.setup_s;
    match Array.to_list results |> List.map Option.get with
    | outcomes when List.for_all Result.is_ok outcomes ->
        let sessions =
          List.map
            (fun o ->
              let ss, warm = Result.get_ok o in
              ignore (check_cycle ss warm);
              ss)
            outcomes
        in
        (server, sock, sessions)
    | outcomes ->
        List.iter (function Ok (ss, _) -> C.close ss.client | Error _ -> ()) outcomes;
        T.Server.stop server;
        raise (Result.get_error (List.find Result.is_error outcomes))
  in
  let teardown (server, sock, sessions) =
    List.iter (fun ss -> C.close ss.client) sessions;
    T.Server.stop server;
    if Sys.file_exists sock then Sys.remove sock
  in
  let rec setups_from k =
    let state = setup k in
    if k = setups then state
    else begin
      teardown state;
      setups_from (k + 1)
    end
  in
  let ((_, _, sessions) as state) = setups_from 1 in
  Fun.protect ~finally:(fun () -> teardown state) @@ fun () ->
  run.digests <- List.concat_map (fun ss -> List.map hex ss.refs) sessions;
  let ss0 = List.hd sessions in
  run.record <-
    [
      ("dataset", "webkit");
      ("tuples_per_side", string_of_int churn_size);
      ("csv_bytes_r", string_of_int (file_bytes ss0.r_path));
      ("csv_bytes_s", string_of_int (file_bytes ss0.s_path));
      ("mem_budget", "0");
      ("sessions", string_of_int churn_sessions);
    ];
  let m = Option.get (T.Metrics.active ()) in
  let counters = T.Metrics.[ Plan_cache_hits; Plan_cache_misses; Result_cache_hits; Result_cache_misses ] in
  let base = List.map (T.Metrics.get m) counters in
  let deadline = now_ns () + int_of_float (args.seconds *. 1e9) in
  let b = barrier () in
  let go = ref true and step = ref (-1) and traced = ref false in
  let worker0 = ref (T.Metrics.dist_stats m T.Metrics.Server_query_ns) in
  let lock = Mutex.create () and probe_lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  (* Within a step the sessions LOAD in turn: session i starts its cycle
     once session i-1's LOAD has returned, so LOADs never collide and a
     LOAD overlaps the previous session's queries the same way in every
     step. *)
  let turn = ref 0 and turn_m = Mutex.create () and turn_c = Condition.create () in
  let take_turn i =
    Mutex.lock turn_m;
    while !turn < i do
      Condition.wait turn_c turn_m
    done;
    Mutex.unlock turn_m
  in
  let pass_turn () =
    Mutex.lock turn_m;
    incr turn;
    Condition.broadcast turn_c;
    Mutex.unlock turn_m
  in
  (* Run by the last session to reach the step's start: end the previous
     step's tracing, decide whether to go on, and begin the next. *)
  let step_start () =
    if !traced then T.Trace.uninstall ();
    turn := 0;
    go := now_ns () < deadline;
    incr step;
    traced := args.trace && !step mod 2 = 1;
    if !go && !traced then begin
      worker0 := T.Metrics.dist_stats m T.Metrics.Server_query_ns;
      T.Trace.install trace_sink
    end
  in
  (* Run once every session's cycle of the step is done: the server's
     own execution time of the step, per session cycle. *)
  let worker_ms = ref 0.0 in
  let step_done () =
    if !traced then begin
      let w1 = T.Metrics.dist_stats m T.Metrics.Server_query_ns in
      worker_ms := ms_of_ns (w1.sum - !worker0.sum) /. float_of_int churn_sessions
    end
  in
  let session i ss () =
    let rec loop () =
      await b step_start;
      if !go then begin
        let is_traced = !traced in
        let sc = if is_traced then Some { req = !step; sums = Hashtbl.create 32 } else None in
        take_turn i;
        let result = try Ok (churn_cycle ~loaded:pass_turn ss sc) with e -> pass_turn (); Error e in
        await b step_done;
        count sc "server.worker_ms" !worker_ms;
        (match result with
        | Ok (latency_ns, load_ns, loaded, replies) ->
            if is_traced then (
              try
                Mutex.lock probe_lock;
                Fun.protect ~finally:(fun () -> Mutex.unlock probe_lock) (fun () -> churn_probe ss sc)
              with e -> locked (fun () -> fail "layer probe: %s" (Printexc.to_string e)));
            locked (fun () ->
                run.attempted <- run.attempted + 1;
                let ms = ms_of_ns latency_ns in
                if is_traced then run.traced_latencies <- ms :: run.traced_latencies
                else begin
                  run.latencies <- ms :: run.latencies;
                  run.loads <- ms_of_ns load_ns :: run.loads
                end;
                Option.iter (fun sc -> record (sums_of sc)) sc;
                run.rows <- run.rows + check_cycle ss (loaded, replies))
        | Error e ->
            locked (fun () ->
                run.attempted <- run.attempted + 1;
                fail "%s" (Printexc.to_string e)));
        loop ()
      end
    in
    loop ()
  in
  let t0 = now_ns () in
  List.mapi (fun i ss -> Thread.create (session i ss) ()) sessions |> List.iter Thread.join;
  run.wall_s <- float_of_int (now_ns () - t0) /. 1e9;
  match List.map2 (fun c b -> T.Metrics.get m c - b) counters base with
  | [ ph; pm; rh; rm ] ->
      cache_ratios := (ratio ph pm, ratio rh rm);
      run.rss_mb <- [ peak_rss_mb () ]
  | _ -> assert false

(* ---------- report ---------- *)

(* Writes one Chrome trace holding the events of every document in
   [docs] — the traces of the forked requests share the parent's clock
   origin, so their events line up on one timeline. *)
let save_trace path docs =
  let events doc =
    let a = String.index doc '[' and b = String.rindex doc ']' in
    String.trim (String.sub doc (a + 1) (b - a - 1))
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\": [";
  output_string oc (String.concat ",\n" (List.filter (fun e -> e <> "") (List.map events docs)));
  output_string oc "], \"displayTimeUnit\": \"ms\"}\n"

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_str s = Printf.sprintf "%S" s

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let end_to_end () =
  let success = if run.attempted = 0 then 0.0 else float_of_int (run.attempted - run.failed) /. float_of_int run.attempted in
  [
    ("latency_ms.p50", median run.latencies, "ms");
    ("latency_ms.p90", quantile 0.9 run.latencies, "ms");
    ("rows_per_s", float_of_int run.rows /. run.wall_s, "rows/s");
    ("peak_rss_mb", median run.rss_mb, "MB");
    ("success_rate", success, "ratio");
    ("load_ms.p50", median run.loads, "ms");
    ("load_ms.p90", quantile 0.9 run.loads, "ms");
    ("setup_s", median run.setup_s, "s");
  ]

let per_layer ~server =
  let pr = per_request in
  let cli = [ "relation.csv_load_ms"; "query.parse_ms"; "query.plan_ms"; "query.exec_ms"; "relation.render_ms" ] in
  let rtts = [ "server.load_rtt_ms"; "server.query_rtt_ms"; "server.hit_rtt_ms" ] in
  let requests = total "request_ms" in
  let parts = sum (List.map total (if server then rtts else cli)) in
  let overhead =
    let untraced = median run.latencies in
    if untraced > 0.0 then 100.0 *. ((median run.traced_latencies /. untraced) -. 1.0) else 0.0
  in
  let ms name = (name, pr name, "ms") and mw name = (name, pr name, "Mwords") and n name = (name, pr name, "count") in
  [
    ms "relation.csv_load_ms";
    mw "relation.csv_load_mw";
    ms "relation.render_ms";
    mw "relation.render_mw";
    ("relation.render_bytes", pr "relation.render_bytes", "bytes");
    ms "query.parse_ms";
    ms "query.plan_ms";
    mw "query.plan_mw";
    ms "query.exec_ms";
    mw "query.exec_mw";
    ms "windows.sweep_ms";
    mw "windows.sweep_mw";
    n "windows.wo";
    n "windows.wu";
    n "windows.wn";
    ms "joins.join_ms";
    mw "joins.join_mw";
    ("joins.form_ms", pr "joins.join_ms" -. pr "windows.sweep_ms", "ms");
    ms "lineage.prob_ms";
    ("lineage.prob_cache_hit_ratio", ratio (int_of_float (total "lineage.prob_cache_hits")) (int_of_float (total "lineage.prob_cache_misses")), "ratio");
    ms "storage.spilled_join_ms";
    ("storage.spill_overhead_ms", (if pr "storage.spilled_join_ms" > 0.0 then pr "storage.spilled_join_ms" -. pr "joins.join_ms" else 0.0), "ms");
    ("storage.spill_bytes", pr "storage.spill_bytes", "bytes");
    n "storage.spill_partitions";
    ("storage.pool_hit_ratio", ratio (int_of_float (total "storage.pool_hits")) (int_of_float (total "storage.pool_misses")), "ratio");
    ms "server.load_rtt_ms";
    ms "server.store_load_ms";
    ms "server.query_rtt_ms";
    ms "server.worker_ms";
    ("server.queue_wire_ms", (if server then pr "server.query_rtt_ms" -. pr "server.worker_ms" else 0.0), "ms");
    ms "server.hit_rtt_ms";
    ("server.plan_cache_hit_ratio", fst !cache_ratios, "ratio");
    ("server.result_cache_hit_ratio", snd !cache_ratios, "ratio");
    ("ledger.request_self_ms", (requests -. parts) /. float_of_int (max 1 (traced_requests ())), "ms");
    ("ledger.unattributed_pct", (if requests > 0.0 then 100.0 *. (requests -. parts) /. requests else 0.0), "%");
    ("obs.trace_overhead_pct", overhead, "%");
  ]

let () =
  let args = parse_args () in
  (* Spill files stay under the output directory. *)
  let tmp = Filename.concat args.out "tmp" in
  mkdir_p tmp;
  Filename.set_temp_dir_name tmp;
  let trace_sink = T.Trace.create ~gc:true () in
  (* The spill and server workloads read the library's counters for
     their integrity checks; the Meteo workload runs without a sink. *)
  if args.workload <> "meteo-oneshot" then T.Metrics.install (T.Metrics.create ());
  (match args.workload with
  | "meteo-oneshot" -> run_oneshot args meteo_oneshot trace_sink
  | "webkit-spill" -> run_oneshot args webkit_spill trace_sink
  | "server-churn" -> run_churn args trace_sink
  | w ->
      Printf.eprintf "tpdb_perf: unknown workload %S\n" w;
      exit 2);
  let metrics =
    if args.trace then per_layer ~server:(args.workload = "server-churn") else end_to_end ()
  in
  let metric_json (name, v, unit) = (name, json_obj [ ("value", json_float v); ("unit", json_str unit) ]) in
  let base = Printf.sprintf "%s-seed%d-trace%d" args.workload args.seed (if args.trace then 1 else 0) in
  let sidecar = Filename.concat args.out (base ^ ".json") in
  let oc = open_out sidecar in
  output_string oc
    (json_obj
       [
         ("workload", json_str args.workload);
         ("seed", string_of_int args.seed);
         ("record", json_obj (List.map (fun (k, v) -> (k, json_str v)) run.record));
         ("digests", "[" ^ String.concat ", " (List.map json_str run.digests) ^ "]");
         ("requests", string_of_int run.attempted);
         ("traced_requests", string_of_int (traced_requests ()));
         ("setup_s", "[" ^ String.concat ", " (List.map json_float (List.rev run.setup_s)) ^ "]");
         ("latencies_ms", "[" ^ String.concat ", " (List.map json_float (List.rev run.latencies)) ^ "]");
         ("loads_ms", "[" ^ String.concat ", " (List.map json_float (List.rev run.loads)) ^ "]");
         ("metrics", json_obj (List.map metric_json metrics));
       ]);
  output_char oc '\n';
  close_out oc;
  if args.trace then begin
    save_trace (Filename.concat args.out (base ^ ".trace.json")) (T.Trace.to_json trace_sink :: run.traces);
    let unattributed = List.assoc "ledger.unattributed_pct" (List.map (fun (n, v, _) -> (n, v)) metrics) in
    if unattributed > ledger_slack_pct then
      Printf.eprintf "tpdb_perf: ledger.unattributed_pct %.2f exceeds the %.1f%% slack\n" unattributed ledger_slack_pct
  end;
  let untraced = List.length run.latencies in
  if untraced < 100 && not args.trace then
    Printf.eprintf "tpdb_perf: only %d requests measured; p90 rests on fewer than ten samples\n" untraced;
  Printf.eprintf "tpdb_perf: %s seed %d: %d requests (%d traced), %d failed, record %s\n%!" args.workload args.seed
    run.attempted (traced_requests ()) run.failed
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) run.record));
  print_endline
    (json_obj
       [
         ("correct", if run.failed = 0 && run.attempted > 0 then "true" else "false");
         ("attempted", string_of_int run.attempted);
         ("failed", string_of_int run.failed);
         ("metrics", json_obj (List.map metric_json metrics));
       ])
