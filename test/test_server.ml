(* The concurrent-session server: protocol framing round-trips, the
   admission queue bounds in-flight work with a typed rejection, and a
   live server over a real socket answers every client — sequential or
   concurrent, cached or not — with exactly the bytes the one-shot
   pipeline produces for the same query. *)

module Relation = Tpdb_relation.Relation
module Csv = Tpdb_relation.Csv
module Catalog = Tpdb_query.Catalog
module Parser = Tpdb_query.Parser
module Planner = Tpdb_query.Planner
module Metrics = Tpdb_obs.Metrics
module P = Tpdb_server_lib.Protocol
module Admission = Tpdb_server_lib.Admission
module Store = Tpdb_server_lib.Store
module Server = Tpdb_server_lib.Server
module Client = Tpdb_server_lib.Client

(* --- protocol framing ------------------------------------------------ *)

let frame_roundtrip write read value =
  let path = Filename.temp_file "tpdb_proto" ".bin" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  write oc value;
  close_out oc;
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () -> read ic

let test_protocol_request_roundtrip () =
  let requests =
    [
      P.Hello { version = P.version; client = "suite" };
      P.Ping;
      P.Query "SELECT * FROM a";
      P.Prepare "SELECT * FROM a WHERE Loc = 'ZAK'";
      P.Execute 42;
      P.Load { name = "r"; csv = "Name,T,p\nx,[0;3),0.5\n" };
      P.Stats;
      P.Openmetrics;
      P.Sleep 250;
      P.Close;
    ]
  in
  List.iter
    (fun req ->
      Alcotest.(check bool) "request survives the wire" true
        (frame_roundtrip P.write_request P.read_request req = req))
    requests

let test_protocol_response_roundtrip () =
  let responses =
    [
      P.Welcome { version = P.version; server = "tpdb_server" };
      P.Pong;
      P.Result
        { text = "r (1 tuples)\n"; rows = 1; plan_cached = true;
          result_cached = false };
      P.Prepared { id = 7; fingerprint = "deadbeefdeadbeef" };
      P.Loaded { name = "r"; version = 3; rows = 100 };
      P.Stats_reply "{\"server\":{}}";
      P.Openmetrics_reply "# EOF\n";
      P.Error { code = P.Overloaded; message = "queue full" };
      P.Error { code = P.Parse_failed; message = "unexpected token" };
      P.Bye;
    ]
  in
  List.iter
    (fun resp ->
      Alcotest.(check bool) "response survives the wire" true
        (frame_roundtrip P.write_response P.read_response resp = resp))
    responses

let test_protocol_rejects_malformed () =
  let raw bytes =
    let path = Filename.temp_file "tpdb_proto" ".bin" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    match P.read_request ic with
    | _ -> `Accepted
    | exception P.Frame_error _ -> `Rejected
    | exception End_of_file -> `Eof
  in
  (* unknown opcode 0x7f in a 1-byte frame *)
  Alcotest.(check bool) "unknown opcode" true
    (raw "\x00\x00\x00\x01\x7f" = `Rejected);
  (* declared length far beyond max_frame *)
  Alcotest.(check bool) "oversized frame" true
    (raw "\x7f\xff\xff\xff\x02" = `Rejected);
  (* PING frame with trailing garbage *)
  Alcotest.(check bool) "trailing bytes" true
    (raw "\x00\x00\x00\x03\x02\x00\x00" = `Rejected)

(* --- admission control ----------------------------------------------- *)

let test_admission_runs_and_propagates () =
  let a = Admission.create ~workers:2 ~queue_limit:16 in
  Fun.protect ~finally:(fun () -> Admission.shutdown a) @@ fun () ->
  let results = Array.make 12 0 in
  let threads =
    List.init 12 (fun i ->
        Thread.create
          (fun () -> results.(i) <- Admission.run a (fun () -> i * i))
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check (list int)) "all jobs ran"
    (List.init 12 (fun i -> i * i))
    (Array.to_list results);
  (match Admission.run a (fun () -> raise Not_found) with
  | _ -> Alcotest.fail "expected Not_found through the queue"
  | exception Not_found -> ());
  Alcotest.(check bool) "queue drained" true (Admission.pending a = 0)

let test_admission_overload_rejection () =
  let a = Admission.create ~workers:1 ~queue_limit:1 in
  let gate_mutex = Mutex.create () in
  let gate = Condition.create () in
  let release = ref false and started = ref false in
  let blocker () =
    Admission.run a (fun () ->
        Mutex.lock gate_mutex;
        started := true;
        Condition.broadcast gate;
        while not !release do
          Condition.wait gate gate_mutex
        done;
        Mutex.unlock gate_mutex)
  in
  let t1 = Thread.create blocker () in
  Mutex.lock gate_mutex;
  while not !started do
    Condition.wait gate gate_mutex
  done;
  Mutex.unlock gate_mutex;
  (* the single worker is parked in the blocker; this job fills the
     queue to its limit of one *)
  let queued_result = ref 0 in
  let t2 = Thread.create (fun () -> queued_result := Admission.run a (fun () -> 7)) () in
  let rec wait_queued tries =
    if Admission.pending a < 1 then
      if tries > 2000 then Alcotest.fail "second job never queued"
      else begin
        Thread.yield ();
        Thread.delay 0.001;
        wait_queued (tries + 1)
      end
  in
  wait_queued 0;
  (match Admission.run a (fun () -> 9) with
  | _ -> Alcotest.fail "expected Overloaded with a full queue"
  | exception Admission.Overloaded { queued; limit } ->
      Alcotest.(check int) "reported queue depth" 1 queued;
      Alcotest.(check int) "reported limit" 1 limit);
  Mutex.lock gate_mutex;
  release := true;
  Condition.broadcast gate;
  Mutex.unlock gate_mutex;
  Thread.join t1;
  Thread.join t2;
  Alcotest.(check int) "queued job still completed" 7 !queued_result;
  Admission.shutdown a;
  match Admission.run a (fun () -> 0) with
  | _ -> Alcotest.fail "expected rejection after shutdown"
  | exception Admission.Overloaded _ -> ()

(* --- a live server over a real socket -------------------------------- *)

let join_sql = "SELECT * FROM a LEFT TPJOIN b ON a.Loc = b.Loc"

(* What [tpdb_cli query --result-only] prints for [sql] over the
   fixture catalog: the byte-identity baseline for every server
   result. *)
let baseline_text ?(relations = []) sql =
  let c = Catalog.create () in
  Catalog.register c (Fixtures.relation_a ());
  Catalog.register c (Fixtures.relation_b ());
  List.iter (Catalog.register c) relations;
  Format.asprintf "%a" Relation.pp
    (Planner.run (Planner.plan c (Parser.parse sql)))

let with_server ?(config = fun c -> c) f =
  let conf = config (Server.default_config (`Tcp ("", 0))) in
  let server = Server.start conf in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let store = Server.store server in
  ignore (Store.register store (Fixtures.relation_a ()));
  ignore (Store.register store (Fixtures.relation_b ()));
  let port =
    match Server.port server with
    | Some p -> p
    | None -> Alcotest.fail "expected a TCP port"
  in
  f server (`Tcp ("", port))

let with_client addr f =
  let c = Client.connect ~client:"suite" addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () -> f c

let test_server_query_matches_baseline () =
  with_server @@ fun _server addr ->
  with_client addr @@ fun c ->
  Client.ping c;
  let expected = baseline_text join_sql in
  let first = Client.query c join_sql in
  Alcotest.(check string) "first result text" expected first.Client.text;
  Alcotest.(check bool) "first run computes" false first.Client.result_cached;
  let second = Client.query c join_sql in
  Alcotest.(check string) "second result text" expected second.Client.text;
  Alcotest.(check bool) "second run hits the plan cache" true
    second.Client.plan_cached;
  Alcotest.(check bool) "second run hits the result cache" true
    second.Client.result_cached;
  Alcotest.(check int) "rows agree" first.Client.rows second.Client.rows

let test_server_errors_keep_session_usable () =
  with_server @@ fun _server addr ->
  with_client addr @@ fun c ->
  (match Client.query c "SELECT nonsense" with
  | _ -> Alcotest.fail "expected a parse error"
  | exception Client.Server_error (P.Parse_failed, _) -> ());
  (match Client.query c "SELECT * FROM missing" with
  | _ -> Alcotest.fail "expected a plan error"
  | exception Client.Server_error (P.Plan_failed, _) -> ());
  (match Client.execute c 99 with
  | _ -> Alcotest.fail "expected an unknown-statement error"
  | exception Client.Server_error (P.Unknown_prepared, _) -> ());
  (* the session survives all three *)
  Alcotest.(check string) "query still works" (baseline_text join_sql)
    (Client.query c join_sql).Client.text

let test_server_prepare_execute_and_replan () =
  with_server @@ fun _server addr ->
  with_client addr @@ fun c ->
  let sql_one = join_sql ^ " WHERE Name = 'Ann' AND Hotel = 'hotel1'" in
  (* same query, conjuncts flipped: normalization must give one
     fingerprint, so the second PREPARE hits the plan cache *)
  let sql_two = join_sql ^ " WHERE Hotel = 'hotel1' AND Name = 'Ann'" in
  let id_one, fp_one = Client.prepare c sql_one in
  let id_two, fp_two = Client.prepare c sql_two in
  Alcotest.(check bool) "distinct statement ids" true (id_one <> id_two);
  Alcotest.(check string) "normalized fingerprints agree" fp_one fp_two;
  let expected = baseline_text sql_one in
  let r_one = Client.execute c id_one in
  Alcotest.(check string) "executed result" expected r_one.Client.text;
  Alcotest.(check bool) "prepared plan reused" true r_one.Client.plan_cached;
  let r_two = Client.execute c id_two in
  Alcotest.(check string) "flipped conjuncts, same bytes" expected
    r_two.Client.text;
  Alcotest.(check bool) "cached result reused across statements" true
    r_two.Client.result_cached

let test_server_result_cache_invalidation () =
  with_server @@ fun _server addr ->
  with_client addr @@ fun c ->
  let warm = Client.query c join_sql in
  Alcotest.(check string) "warm result" (baseline_text join_sql)
    warm.Client.text;
  let hit = Client.query c join_sql in
  Alcotest.(check bool) "cache hit before reload" true
    hit.Client.result_cached;
  (* reload b with one row dropped: version bumps, the old cached
     result must become unreachable *)
  let b' =
    Relation.of_rows ~name:"b" ~columns:[ "Hotel"; "Loc" ]
      [
        ([ "hotel2"; "ZAK" ], Fixtures.iv 5 8, 0.6);
        ([ "hotel1"; "ZAK" ], Fixtures.iv 4 6, 0.7);
      ]
  in
  let version, rows = Client.load c ~name:"b" ~csv:(Csv.to_string b') in
  Alcotest.(check int) "reload bumps the version" 2 version;
  Alcotest.(check int) "reloaded rows" 2 rows;
  let after = Client.query c join_sql in
  Alcotest.(check bool) "reload invalidates the cached result" false
    after.Client.result_cached;
  Alcotest.(check string) "result reflects the reloaded relation"
    (baseline_text ~relations:[ b' ] join_sql)
    after.Client.text;
  let again = Client.query c join_sql in
  Alcotest.(check bool) "new result is cached in turn" true
    again.Client.result_cached

(* A LOAD that changes only a probability keeps every lineage the
   same, so the answer changes only if plans read the new generation's
   marginals, not a memo of the old ones. *)
let test_server_load_changes_probability () =
  with_server @@ fun _server addr ->
  with_client addr @@ fun c ->
  let before = Client.query c join_sql in
  Alcotest.(check string) "before" (baseline_text join_sql) before.Client.text;
  let b' =
    Relation.of_rows ~name:"b" ~columns:[ "Hotel"; "Loc" ]
      [
        ([ "hotel3"; "SOR" ], Fixtures.iv 1 4, 0.9);
        ([ "hotel2"; "ZAK" ], Fixtures.iv 5 8, 0.6);
        ([ "hotel1"; "ZAK" ], Fixtures.iv 4 6, 0.2);
      ]
  in
  ignore (Client.load c ~name:"b" ~csv:(Csv.to_string b'));
  let after = Client.query c join_sql in
  Alcotest.(check bool) "the answer changes" false
    (String.equal before.Client.text after.Client.text);
  Alcotest.(check string) "it is the one-shot answer over the new data"
    (baseline_text ~relations:[ b' ] join_sql)
    after.Client.text

let test_server_overload_is_typed () =
  let config c =
    { c with Server.workers = 1; queue_limit = 1; debug_sleep = true }
  in
  with_server ~config @@ fun _server addr ->
  with_client addr @@ fun c1 ->
  with_client addr @@ fun c2 ->
  with_client addr @@ fun c3 ->
  with_client addr @@ fun c4 ->
  (* one worker plus one queue slot: of three concurrent 400 ms
     sleeps, the first submit always finds the queue empty (so at
     least one is admitted) and — since all three land well inside the
     first sleep's window — some submit must find the slot taken (so
     at least one is rejected, with the typed error). Which client
     gets which outcome depends on socket scheduling, so assert the
     aggregate instead of racing to observe intermediate depths. *)
  let outcomes = Array.make 3 `Pending in
  let sleeper i c =
    Thread.create
      (fun () ->
        match Client.sleep c 400 with
        | () -> outcomes.(i) <- `Admitted
        | exception Client.Server_overloaded _ -> outcomes.(i) <- `Rejected)
      ()
  in
  let threads = [ sleeper 0 c1; sleeper 1 c2; sleeper 2 c3 ] in
  (* STATS bypasses admission: it must answer while the worker and
     queue are saturated *)
  let stats = Client.stats c4 in
  Alcotest.(check bool)
    "stats answers under load" true
    (String.length stats > 0);
  List.iter Thread.join threads;
  let count tag =
    Array.fold_left (fun n o -> if o = tag then n + 1 else n) 0 outcomes
  in
  Alcotest.(check bool) "at least one sleep admitted" true (count `Admitted >= 1);
  Alcotest.(check bool) "at least one sleep rejected" true (count `Rejected >= 1);
  Alcotest.(check int) "no sleep left pending" 0 (count `Pending);
  (* backpressure, not failure: rejected sessions stay usable *)
  Client.ping c1;
  Client.ping c2;
  Client.ping c3

let test_server_concurrent_clients_match_baseline () =
  with_server @@ fun _server addr ->
  let queries =
    [
      join_sql;
      "SELECT * FROM a TPJOIN b ON a.Loc = b.Loc";
      "SELECT * FROM a ANTIJOIN b ON a.Loc = b.Loc";
    ]
  in
  let expected = List.map baseline_text queries in
  let reload_csv = Csv.to_string (Fixtures.relation_b ()) in
  let failures = ref [] in
  let failures_mutex = Mutex.create () in
  let fail_with msg =
    Mutex.lock failures_mutex;
    failures := msg :: !failures;
    Mutex.unlock failures_mutex
  in
  let client_thread tid =
    with_client addr @@ fun c ->
    for i = 0 to 11 do
      if (tid + i) mod 6 = 5 then begin
        (* mixed workload: re-LOAD b with identical content — versions
           move, results must not *)
        match Client.load c ~name:"b" ~csv:reload_csv with
        | _ -> ()
        | exception e ->
            fail_with (Printf.sprintf "t%d load: %s" tid (Printexc.to_string e))
      end
      else begin
        let k = (tid + i) mod List.length queries in
        let sql = List.nth queries k in
        match Client.query c sql with
        | r ->
            if not (String.equal r.Client.text (List.nth expected k)) then
              fail_with
                (Printf.sprintf "t%d q%d: result diverged from baseline" tid k)
        | exception e ->
            fail_with
              (Printf.sprintf "t%d q%d: %s" tid k (Printexc.to_string e))
      end
    done
  in
  let threads = List.init 8 (fun tid -> Thread.create client_thread tid) in
  List.iter Thread.join threads;
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.failf "%d failures: %s" (List.length msgs)
              (String.concat "; " msgs));
  (* the store moved (reloads) but the data did not *)
  with_client addr @@ fun c ->
  Alcotest.(check string) "post-stress result intact"
    (List.nth expected 0)
    (Client.query c join_sql).Client.text

let test_server_stats_and_openmetrics () =
  with_server @@ fun _server addr ->
  with_client addr @@ fun c ->
  ignore (Client.query c join_sql);
  ignore (Client.query c join_sql);
  let stats = Client.stats c in
  let contains needle haystack =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i =
      if i + nn > nh then false
      else String.sub haystack i nn = needle || go (i + 1)
    in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in stats") true (contains needle stats))
    [
      "\"protocol_version\""; "\"relations\""; "\"queued\"";
      "\"plan_cache_entries\""; "\"result_cache_entries\""; "\"metrics\"";
    ];
  let om = Client.openmetrics c in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " exported") true (contains needle om))
    [
      "tpdb_server_queries_total"; "tpdb_result_cache_hits_total";
      "tpdb_plan_cache_hits_total"; "tpdb_sessions_opened_total"; "# EOF";
    ]

(* --- the store: digests and per-version statistics --- *)

module Stats = Tpdb_query.Stats
module Webkit = Tpdb_workload.Datasets.Webkit

(* Cached results are keyed on these digests, so they must not drift
   between releases: the values below are those of the original
   closure-based FNV loop. *)
let test_store_digest_pinned () =
  let store = Store.create () in
  ignore
    (Store.load_csv store ~name:"edge"
       ~csv:
         (String.concat "\n"
            [
              "K,N,X,lineage,ts,te,p";
              "-,-7,2.5,a1 & !(b2 | c3),-10,-3,0";
              "alpha,0,-0.125,!(a2 & b1) | c4,-5,4,1";
              "beta,12,1e-07,(a3 | b4) & (c1 | !d2),0,1,0.00001";
              "gamma,4611686018427387903,-,!a5,-4611686018427387904,4611686018427387903,0.123456";
              "delta,-4611686018427387904,100000,T,7,9,0.5";
              "";
            ]));
  ignore (Store.register store (fst (Webkit.pair ~seed:7 50)));
  Alcotest.(check (option (list (triple string int string))))
    "digests"
    (Some [ ("edge", 1, "bc8405f5534b61b2"); ("r", 1, "ff35a64d1ed66eb6") ])
    (Store.digests store [ "edge"; "r" ])

let stats_of catalog name =
  match Catalog.stats catalog name with
  | Some s -> s
  | None -> Alcotest.failf "no statistics for %s" name

let test_store_views_share_stats () =
  let store = Store.create () in
  let r, s = Webkit.pair ~seed:3 200 in
  ignore (Store.load_csv store ~name:"r" ~csv:(Csv.to_string r));
  ignore (Store.register store s);
  let a, _ = Store.view store [ "r"; "s" ] and b, _ = Store.view store [ "r"; "s" ] in
  Alcotest.(check bool) "one version, one stats value" true
    (stats_of a "r" == stats_of b "r");
  (* a snapshot taken after the first use shares it too *)
  let c = Store.snapshot store in
  Alcotest.(check bool) "later snapshot shares it" true
    (stats_of a "r" == stats_of c "r");
  ignore (Store.load_csv store ~name:"r" ~csv:(Csv.to_string r));
  let d, _ = Store.view store [ "r" ] in
  Alcotest.(check bool) "a re-LOAD gets fresh stats" false
    (stats_of a "r" == stats_of d "r");
  Alcotest.(check bool) "the untouched name keeps its stats" true
    (stats_of a "s" == stats_of d "s");
  Alcotest.(check bool) "the old snapshot keeps the old version" true
    (stats_of a "r" == stats_of b "r")

(* Fresh snapshots share one version's unforced statistics; two domains
   planning and estimating over them at once force the same
   suspensions. Both must finish, with the same plans. *)
let test_store_concurrent_planning () =
  let store = Store.create () in
  let r, s = Webkit.pair ~seed:5 300 in
  ignore (Store.register store s);
  let sql =
    Parser.parse "SELECT * FROM r LEFT TPJOIN s ON r.File = s.File"
  in
  for _ = 1 to 10 do
    ignore (Store.register store r);
    let ready = Atomic.make 0 in
    let plan_once () =
      let catalog, _ = Store.view store [ "r"; "s" ] in
      Atomic.incr ready;
      while Atomic.get ready < 2 do
        Domain.cpu_relax ()
      done;
      let p = Planner.plan ~sanitize:false catalog sql in
      (Planner.explain p, Stats.to_string (stats_of catalog "r"))
    in
    let other = Domain.spawn plan_once in
    let mine = plan_once () in
    Alcotest.(check (pair string string)) "domains agree" mine (Domain.join other)
  done

let suite =
  [
    Alcotest.test_case "store: digests pinned" `Quick test_store_digest_pinned;
    Alcotest.test_case "store: views share stats per version" `Quick
      test_store_views_share_stats;
    Alcotest.test_case "store: concurrent planning over snapshots" `Quick
      test_store_concurrent_planning;
    Alcotest.test_case "protocol: requests round-trip" `Quick
      test_protocol_request_roundtrip;
    Alcotest.test_case "protocol: responses round-trip" `Quick
      test_protocol_response_roundtrip;
    Alcotest.test_case "protocol: malformed frames rejected" `Quick
      test_protocol_rejects_malformed;
    Alcotest.test_case "admission: jobs run, exceptions propagate" `Quick
      test_admission_runs_and_propagates;
    Alcotest.test_case "admission: typed overload rejection" `Quick
      test_admission_overload_rejection;
    Alcotest.test_case "server: query matches one-shot baseline" `Quick
      test_server_query_matches_baseline;
    Alcotest.test_case "server: errors keep the session usable" `Quick
      test_server_errors_keep_session_usable;
    Alcotest.test_case "server: prepare/execute and plan-cache reuse" `Quick
      test_server_prepare_execute_and_replan;
    Alcotest.test_case "server: reload invalidates cached results" `Quick
      test_server_result_cache_invalidation;
    Alcotest.test_case "server: a LOAD that changes a probability" `Quick
      test_server_load_changes_probability;
    Alcotest.test_case "server: overload is a typed rejection" `Quick
      test_server_overload_is_typed;
    Alcotest.test_case "server: concurrent clients match baseline" `Quick
      test_server_concurrent_clients_match_baseline;
    Alcotest.test_case "server: stats and OpenMetrics surface" `Quick
      test_server_stats_and_openmetrics;
  ]
