type counter =
  | Tuples_in
  | Tuples_out
  | Windows_overlapping
  | Windows_unmatched
  | Windows_negating
  | Sweep_segments
  | Lineage_nodes
  | Prob_evals
  | Partition_sweeps
  | Sanitizer_checks
  | Oracle_evals
  | Oracle_comparisons
  | Oracle_mismatches
  | Minor_alloc_words
  | Analysis_deep_passes
  | Analysis_pruned_subplans
  | Analysis_folded_atoms
  | Analysis_safe_joins
  | Analysis_static_prob_evals
  | Prob_readonce_checks
  | Prob_bdd_fallbacks
  | Major_alloc_words
  | Promoted_words
  | Spill_bytes
  | Spill_partitions
  | Pool_hits
  | Pool_misses
  | Server_queries
  | Server_rejections
  | Plan_cache_hits
  | Plan_cache_misses
  | Result_cache_hits
  | Result_cache_misses
  | Sessions_opened
  | Sessions_closed

type dist =
  | Partition_size
  | Domain_busy_ns
  | Sanitizer_ns
  | Oracle_eval_ns
  | Analysis_ns
  | Spill_partition_bytes
  | Pool_hit_rate
  | Server_query_ns
  | Server_queue_ns

let counters =
  [
    Tuples_in;
    Tuples_out;
    Windows_overlapping;
    Windows_unmatched;
    Windows_negating;
    Sweep_segments;
    Lineage_nodes;
    Prob_evals;
    Partition_sweeps;
    Sanitizer_checks;
    Oracle_evals;
    Oracle_comparisons;
    Oracle_mismatches;
    Minor_alloc_words;
    Analysis_deep_passes;
    Analysis_pruned_subplans;
    Analysis_folded_atoms;
    Analysis_safe_joins;
    Analysis_static_prob_evals;
    Prob_readonce_checks;
    Prob_bdd_fallbacks;
    Major_alloc_words;
    Promoted_words;
    Spill_bytes;
    Spill_partitions;
    Pool_hits;
    Pool_misses;
    Server_queries;
    Server_rejections;
    Plan_cache_hits;
    Plan_cache_misses;
    Result_cache_hits;
    Result_cache_misses;
    Sessions_opened;
    Sessions_closed;
  ]

let dists =
  [ Partition_size; Domain_busy_ns; Sanitizer_ns; Oracle_eval_ns;
    Analysis_ns; Spill_partition_bytes; Pool_hit_rate;
    Server_query_ns; Server_queue_ns ]

let counter_index = function
  | Tuples_in -> 0
  | Tuples_out -> 1
  | Windows_overlapping -> 2
  | Windows_unmatched -> 3
  | Windows_negating -> 4
  | Sweep_segments -> 5
  | Lineage_nodes -> 6
  | Prob_evals -> 7
  | Partition_sweeps -> 8
  | Sanitizer_checks -> 9
  | Oracle_evals -> 10
  | Oracle_comparisons -> 11
  | Oracle_mismatches -> 12
  | Minor_alloc_words -> 13
  | Analysis_deep_passes -> 14
  | Analysis_pruned_subplans -> 15
  | Analysis_folded_atoms -> 16
  | Analysis_safe_joins -> 17
  | Analysis_static_prob_evals -> 18
  | Prob_readonce_checks -> 19
  | Prob_bdd_fallbacks -> 20
  | Major_alloc_words -> 21
  | Promoted_words -> 22
  | Spill_bytes -> 23
  | Spill_partitions -> 24
  | Pool_hits -> 25
  | Pool_misses -> 26
  | Server_queries -> 27
  | Server_rejections -> 28
  | Plan_cache_hits -> 29
  | Plan_cache_misses -> 30
  | Result_cache_hits -> 31
  | Result_cache_misses -> 32
  | Sessions_opened -> 33
  | Sessions_closed -> 34

let dist_index = function
  | Partition_size -> 0
  | Domain_busy_ns -> 1
  | Sanitizer_ns -> 2
  | Oracle_eval_ns -> 3
  | Analysis_ns -> 4
  | Spill_partition_bytes -> 5
  | Pool_hit_rate -> 6
  | Server_query_ns -> 7
  | Server_queue_ns -> 8

let counter_name = function
  | Tuples_in -> "tuples_in"
  | Tuples_out -> "tuples_out"
  | Windows_overlapping -> "windows_overlapping"
  | Windows_unmatched -> "windows_unmatched"
  | Windows_negating -> "windows_negating"
  | Sweep_segments -> "sweep_segments"
  | Lineage_nodes -> "lineage_nodes"
  | Prob_evals -> "prob_evals"
  | Partition_sweeps -> "partition_sweeps"
  | Sanitizer_checks -> "sanitizer_checks"
  | Oracle_evals -> "oracle_evals"
  | Oracle_comparisons -> "oracle_comparisons"
  | Oracle_mismatches -> "oracle_mismatches"
  | Minor_alloc_words -> "minor_alloc_words"
  | Analysis_deep_passes -> "analysis_deep_passes"
  | Analysis_pruned_subplans -> "analysis_pruned_subplans"
  | Analysis_folded_atoms -> "analysis_folded_atoms"
  | Analysis_safe_joins -> "analysis_safe_joins"
  | Analysis_static_prob_evals -> "analysis_static_prob_evals"
  | Prob_readonce_checks -> "prob_readonce_checks"
  | Prob_bdd_fallbacks -> "prob_bdd_fallbacks"
  | Major_alloc_words -> "major_alloc_words"
  | Promoted_words -> "promoted_words"
  | Spill_bytes -> "spill_bytes"
  | Spill_partitions -> "spill_partitions"
  | Pool_hits -> "pool_hits"
  | Pool_misses -> "pool_misses"
  | Server_queries -> "server_queries"
  | Server_rejections -> "server_rejections"
  | Plan_cache_hits -> "plan_cache_hits"
  | Plan_cache_misses -> "plan_cache_misses"
  | Result_cache_hits -> "result_cache_hits"
  | Result_cache_misses -> "result_cache_misses"
  | Sessions_opened -> "sessions_opened"
  | Sessions_closed -> "sessions_closed"

let dist_name = function
  | Partition_size -> "partition_size"
  | Domain_busy_ns -> "domain_busy_ns"
  | Sanitizer_ns -> "sanitizer_ns"
  | Oracle_eval_ns -> "oracle_eval_ns"
  | Analysis_ns -> "analysis_ns"
  | Spill_partition_bytes -> "spill_partition_bytes"
  | Pool_hit_rate -> "pool_hit_rate"
  | Server_query_ns -> "server_query_ns"
  | Server_queue_ns -> "server_queue_ns"

type t = {
  c : int Atomic.t array;  (** indexed by [counter_index] *)
  d : Hist.t array;  (** indexed by [dist_index] *)
  labeled_mutex : Mutex.t;
  labeled : (string * string, Hist.t) Hashtbl.t;
      (** (metric, label) → histogram; created on first observation *)
}

type dist_stats = { count : int; sum : int; min : int; max : int }

type snapshot = {
  counters : (string * int) list;
  dists : (string * Hist.snapshot) list;
  labeled : (string * string * Hist.snapshot) list;
}

let atomics n = Array.init n (fun _ -> Atomic.make 0)

let create () =
  {
    c = atomics (List.length counters);
    d = Array.init (List.length dists) (fun _ -> Hist.create ());
    labeled_mutex = Mutex.create ();
    labeled = Hashtbl.create 16;
  }

(* --- the global sink --- *)

let sink : t option Atomic.t = Atomic.make None
let install t = Atomic.set sink (Some t)
let uninstall () = Atomic.set sink None
let active () = Atomic.get sink
let enabled () = Option.is_some (Atomic.get sink)

let with_sink t f =
  let previous = Atomic.get sink in
  Atomic.set sink (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set sink previous) f

(* --- recording --- *)

let add_to t counter n = ignore (Atomic.fetch_and_add t.c.(counter_index counter) n)
let observe_in t dist v = Hist.record t.d.(dist_index dist) v

let add counter n =
  match Atomic.get sink with None -> () | Some t -> add_to t counter n

let incr counter = add counter 1

let observe dist v =
  match Atomic.get sink with None -> () | Some t -> observe_in t dist v

(* Hashtbl reads are not safe under concurrent insertion on multicore
   OCaml, so lookup and creation both hold the mutex. Labeled
   observations only happen on span close with GC accounting enabled,
   never in the sweep hot path. *)
let labeled_hist t ~metric ~label =
  Mutex.lock t.labeled_mutex;
  let h =
    match Hashtbl.find_opt t.labeled (metric, label) with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        Hashtbl.add t.labeled (metric, label) h;
        h
  in
  Mutex.unlock t.labeled_mutex;
  h

let observe_labeled ~metric ~label v =
  match Atomic.get sink with
  | None -> ()
  | Some t -> Hist.record (labeled_hist t ~metric ~label) v

let time dist f =
  match Atomic.get sink with
  | None -> f ()
  | Some t ->
      let t0 = Clock.now_ns () in
      Fun.protect
        ~finally:(fun () -> observe_in t dist (Clock.now_ns () - t0))
        f

let count_alloc counter f =
  match Atomic.get sink with
  | None -> f ()
  | Some t ->
      (* [Gc.quick_stat]'s allocation fields refresh only at collection
         points, so a region that triggers no GC would count as zero;
         [Gc.minor_words] reads the domain's allocation pointer exactly
         and [Gc.counters] keeps major/promoted words current. Minor is
         read last on entry and first on exit so the probes' own
         bookkeeping allocations stay out of the delta. *)
      let _, promoted0, major0 = Gc.counters () in
      let minor0 = Gc.minor_words () in
      Fun.protect
        ~finally:(fun () ->
          let minor1 = Gc.minor_words () in
          let _, promoted1, major1 = Gc.counters () in
          let delta f1 f0 = int_of_float (f1 -. f0) in
          add_to t counter (delta minor1 minor0);
          add_to t Major_alloc_words (delta major1 major0);
          add_to t Promoted_words (delta promoted1 promoted0))
        f

(* --- reading --- *)

let get t counter = Atomic.get t.c.(counter_index counter)
let dist_snapshot t dist = Hist.snapshot t.d.(dist_index dist)

let dist_stats t dist =
  let s = dist_snapshot t dist in
  { count = s.Hist.count; sum = s.Hist.sum; min = s.Hist.min; max = s.Hist.max }

let mean { count; sum; _ } =
  if count = 0 then 0.0 else float_of_int sum /. float_of_int count

let quantile t dist q = Hist.quantile (dist_snapshot t dist) q

let labeled_snapshot t =
  Mutex.lock t.labeled_mutex;
  let entries =
    Hashtbl.fold
      (fun (metric, label) h acc -> (metric, label, Hist.snapshot h) :: acc)
      t.labeled []
  in
  Mutex.unlock t.labeled_mutex;
  List.sort
    (fun (m1, l1, _) (m2, l2, _) ->
      match String.compare m1 m2 with 0 -> String.compare l1 l2 | c -> c)
    entries

let snapshot t =
  {
    counters = List.map (fun c -> (counter_name c, get t c)) counters;
    dists = List.map (fun d -> (dist_name d, dist_snapshot t d)) dists;
    labeled = labeled_snapshot t;
  }

let reset t =
  Array.iter (fun a -> Atomic.set a 0) t.c;
  Array.iter Hist.reset t.d;
  Mutex.lock t.labeled_mutex;
  Hashtbl.reset t.labeled;
  Mutex.unlock t.labeled_mutex

let hist_json (s : Hist.snapshot) =
  Json.obj
    [
      ("count", Json.int s.Hist.count);
      ("sum", Json.int s.Hist.sum);
      ("min", Json.int s.Hist.min);
      ("max", Json.int s.Hist.max);
      ("mean", Json.float (Hist.mean s));
      ("p50", Json.int (Hist.quantile s 0.5));
      ("p90", Json.int (Hist.quantile s 0.9));
      ("p99", Json.int (Hist.quantile s 0.99));
    ]

let to_json t =
  let s = snapshot t in
  let by_metric =
    (* group the labeled histograms by metric name, labels inside *)
    List.fold_left
      (fun acc (metric, label, snap) ->
        let existing = Option.value ~default:[] (List.assoc_opt metric acc) in
        (metric, existing @ [ (label, snap) ])
        :: List.remove_assoc metric acc)
      [] s.labeled
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Json.obj
    [
      ( "counters",
        Json.obj (List.map (fun (k, v) -> (k, Json.int v)) s.counters) );
      ( "distributions",
        Json.obj (List.map (fun (k, snap) -> (k, hist_json snap)) s.dists) );
      ( "span_distributions",
        Json.obj
          (List.map
             (fun (metric, labels) ->
               ( metric,
                 Json.obj
                   (List.map (fun (label, snap) -> (label, hist_json snap)) labels)
               ))
             by_metric) );
    ]

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')

(* --- OpenMetrics text export --- *)

let om_escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

let om_summary b ~name ?label (s : Hist.snapshot) =
  let labels extra =
    match (label, extra) with
    | None, [] -> ""
    | _ ->
        let pairs =
          (match label with
          | None -> []
          | Some (k, v) -> [ (k, om_escape_label v) ])
          @ extra
        in
        "{"
        ^ String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k v) pairs)
        ^ "}"
  in
  List.iter
    (fun (q, qs) ->
      Printf.bprintf b "%s%s %d\n" name
        (labels [ ("quantile", qs) ])
        (Hist.quantile s q))
    [ (0.5, "0.5"); (0.9, "0.9"); (0.99, "0.99") ];
  Printf.bprintf b "%s_count%s %d\n" name (labels []) s.Hist.count;
  Printf.bprintf b "%s_sum%s %d\n" name (labels []) s.Hist.sum

let to_openmetrics t =
  let s = snapshot t in
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let name = "tpdb_" ^ om_name name in
      Printf.bprintf b "# TYPE %s counter\n" name;
      Printf.bprintf b "%s_total %d\n" name v)
    s.counters;
  List.iter
    (fun (name, snap) ->
      let name = "tpdb_" ^ om_name name in
      Printf.bprintf b "# TYPE %s summary\n" name;
      om_summary b ~name snap;
      Printf.bprintf b "# TYPE %s_max gauge\n" name;
      Printf.bprintf b "%s_max %d\n" name snap.Hist.max)
    s.dists;
  (* one family per labeled metric; labels distinguish the spans *)
  let metrics =
    List.sort_uniq String.compare (List.map (fun (m, _, _) -> m) s.labeled)
  in
  List.iter
    (fun metric ->
      let name = "tpdb_" ^ om_name metric in
      Printf.bprintf b "# TYPE %s summary\n" name;
      List.iter
        (fun (m, label, snap) ->
          if String.equal m metric then
            om_summary b ~name ~label:("span", label) snap)
        s.labeled)
    metrics;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let save_openmetrics t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_openmetrics t))
