module P = Protocol
module Metrics = Tpdb_obs.Metrics
module Clock = Tpdb_obs.Clock
module Qlog = Tpdb_obs.Qlog
module Json = Tpdb_obs.Json
module Relation = Tpdb_relation.Relation
module Csv = Tpdb_relation.Csv
module Catalog = Tpdb_query.Catalog
module Ast = Tpdb_query.Ast
module Parser = Tpdb_query.Parser
module Lexer = Tpdb_query.Lexer
module Planner = Tpdb_query.Planner
module Pool = Tpdb_engine.Pool
module Db = Tpdb_storage.Db

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  workers : int;
  queue_limit : int;
  plan_cache_capacity : int;
  result_cache_capacity : int;
  parallelism : int;
  sanitize : bool option;
  mem_budget : int option;
  db_dir : string option;
  stats_dir : string option;
  qlog : string option;
  debug_sleep : bool;
}

let default_config listen =
  {
    listen;
    workers = 2;
    queue_limit = 64;
    plan_cache_capacity = 128;
    result_cache_capacity = 256;
    parallelism = 1;
    sanitize = None;
    mem_budget = None;
    db_dir = None;
    stats_dir = None;
    qlog = None;
    debug_sleep = false;
  }

type t = {
  config : config;
  store : Store.t;
  admission : Admission.t;
  plans : Plan_cache.t;
  results : Result_cache.t;
  metrics : Metrics.t;
  listener : Unix.file_descr;
  bound : Unix.sockaddr;
  mutable accept_thread : Thread.t option;
  stopping : bool Atomic.t;
  session_mutex : Mutex.t;
  mutable session_fds : Unix.file_descr list;
  mutable session_threads : Thread.t list;
  active_sessions : int Atomic.t;
}

let address t = t.bound

let port t =
  match t.bound with Unix.ADDR_INET (_, port) -> Some port | _ -> None

(* --- per-session state --- *)

type session = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  prepared : (int, string * Ast.t * string) Hashtbl.t;
      (* id → (sql, normalized ast, ast fingerprint) *)
  mutable next_id : int;
}

let iso_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let qlog_record ~sql ~fingerprint ~total_ms ~rows_out =
  {
    Qlog.ts = iso_now ();
    query = sql;
    fingerprint;
    total_ms;
    rows_in = 0;
    rows_out;
    wo = 0;
    wu = 0;
    wn = 0;
    prob_cache_hits = 0;
    prob_cache_misses = 0;
    spill_bytes = 0;
    spill_partitions = 0;
    sanitizer_ms = 0.0;
    stages = [];
    gc =
      {
        Qlog.minor_words = 0;
        major_words = 0;
        promoted_words = 0;
        major_collections = 0;
        top_heap_words = 0;
      };
    slow = false;
    trace_file = None;
  }

(* Render exactly what [tpdb_cli query --result-only] prints: the
   byte-identity contract of the wire format (and the result cache's
   value). [Relation.print] and [Relation.to_string] share one set of
   buffer writers, so the bytes are the same by construction. *)
let render relation = Relation.to_string relation

(* --- query execution ---

   Session threads (systhreads, all on the server's domain) do socket
   IO, parsing and cache lookups only. Anything that can intern lineage
   formulas — planning against a catalog (probability environments),
   executing a plan, parsing CSV — runs as an admission job on a worker
   domain, one job per domain at a time, because the hash-cons unique
   table is domain-local state that concurrent systhreads would
   corrupt. *)

let plan_of t session_catalog (ast : Ast.t) =
  Planner.plan ~parallelism:t.config.parallelism
    ?sanitize:t.config.sanitize ?mem_budget:t.config.mem_budget
    session_catalog ast

(* Plan-cache lookup + fill for one normalized query against one
   consistent view. Returns the entry and whether it was a hit. Must
   run where planning is allowed (worker domain) unless the entry is
   already cached — [find] itself is pure lookup. *)
let planned t ~catalog ~inputs ~sql ~ast ~afp =
  match
    Plan_cache.find t.plans ~current_version:(Catalog.version catalog) afp
  with
  | Some entry -> (entry, true)
  | None ->
      let plan = plan_of t catalog ast in
      let entry =
        {
          Plan_cache.sql;
          ast;
          plan;
          plan_fingerprint = Planner.fingerprint plan;
          versions = List.map (fun (name, v, _) -> (name, v)) inputs;
        }
      in
      Plan_cache.store t.plans ~fingerprint:afp entry;
      (entry, false)

let execute_query t ~sql ~ast =
  let ast = Ast.normalize ast in
  let afp = Ast.fingerprint ast in
  let rels = Ast.relations ast in
  let catalog, inputs = Store.view t.store rels in
  match inputs with
  | None ->
      (* Unknown relation(s): no cache can apply; let the planner
         produce its usual error on a worker domain. *)
      Admission.run t.admission (fun () ->
          let plan = plan_of t catalog ast in
          let relation = Planner.run plan in
          let text = render relation in
          Metrics.incr Metrics.Server_queries;
          P.Result
            {
              text;
              rows = Relation.cardinality relation;
              plan_cached = false;
              result_cached = false;
            })
  | Some inputs -> (
      (* Fast path: a still-valid cached plan gives us the plan
         fingerprint without planning, and with it the result key — a
         hit is answered on the session thread, no worker involved. *)
      let cached_plan =
        Plan_cache.find t.plans ~current_version:(Catalog.version catalog) afp
      in
      let result_hit =
        match cached_plan with
        | None -> None
        | Some entry ->
            let key =
              Result_cache.key ~plan_fingerprint:entry.plan_fingerprint inputs
            in
            Result_cache.find t.results key
      in
      match result_hit with
      | Some entry ->
          Metrics.incr Metrics.Server_queries;
          P.Result
            {
              text = entry.text;
              rows = entry.rows;
              plan_cached = true;
              result_cached = true;
            }
      | None ->
          Admission.run t.admission (fun () ->
              let t0 = Clock.now_ns () in
              let entry, plan_cached =
                match cached_plan with
                | Some entry -> (entry, true)
                | None -> planned t ~catalog ~inputs ~sql ~ast ~afp
              in
              let key =
                Result_cache.key ~plan_fingerprint:entry.plan_fingerprint
                  inputs
              in
              (* Another worker may have finished the same query while
                 we queued; the recheck costs one lookup. *)
              match Result_cache.find t.results key with
              | Some cached ->
                  Metrics.incr Metrics.Server_queries;
                  P.Result
                    {
                      text = cached.text;
                      rows = cached.rows;
                      plan_cached;
                      result_cached = true;
                    }
              | None ->
                  let relation = Planner.run entry.plan in
                  let text = render relation in
                  let rows = Relation.cardinality relation in
                  Result_cache.store t.results ~key
                    { Result_cache.text; rows; inputs = rels };
                  let elapsed_ns = Clock.now_ns () - t0 in
                  Metrics.incr Metrics.Server_queries;
                  Metrics.observe Metrics.Server_query_ns elapsed_ns;
                  Option.iter
                    (fun path ->
                      Qlog.append path
                        (qlog_record ~sql
                           ~fingerprint:entry.plan_fingerprint
                           ~total_ms:(float_of_int elapsed_ns /. 1e6)
                           ~rows_out:rows))
                    t.config.qlog;
                  P.Result
                    { text; rows; plan_cached; result_cached = false }))

let prepare t session sql =
  let ast = Ast.normalize (Parser.parse sql) in
  let afp = Ast.fingerprint ast in
  let id = session.next_id in
  session.next_id <- id + 1;
  Hashtbl.replace session.prepared id (sql, ast, afp);
  let rels = Ast.relations ast in
  let catalog, inputs = Store.view t.store rels in
  (* Plan eagerly so EXECUTE (and re-PREPARE) hit the plan cache; an
     unknown relation only surfaces at EXECUTE, like the plan error it
     is. *)
  (match inputs with
  | None -> ()
  | Some inputs ->
      Admission.run t.admission (fun () ->
          ignore (planned t ~catalog ~inputs ~sql ~ast ~afp)));
  P.Prepared { id; fingerprint = afp }

let stats_json t =
  Json.obj
    [
      ( "server",
        Json.obj
          [
            ("protocol_version", Json.int P.version);
            ("generation", Json.int (Store.generation t.store));
            ( "relations",
              Json.arr (List.map Json.str (Store.names t.store)) );
            ("active_sessions", Json.int (Atomic.get t.active_sessions));
            ("workers", Json.int (Admission.workers t.admission));
            ("queue_limit", Json.int t.config.queue_limit);
            ("queued", Json.int (Admission.pending t.admission));
            ("pool_pending", Json.int (Pool.pending (Pool.default ())));
            ("plan_cache_entries", Json.int (Plan_cache.length t.plans));
            ( "result_cache_entries",
              Json.int (Result_cache.length t.results) );
            ("parallelism", Json.int t.config.parallelism);
          ] );
      ("metrics", Metrics.to_json t.metrics);
    ]

let handle t session req =
  match req with
  | P.Hello { version; client = _ } ->
      if version <> P.version then
        P.Error
          {
            code = P.Protocol_violation;
            message =
              Printf.sprintf "protocol version mismatch: server %d, client %d"
                P.version version;
          }
      else P.Welcome { version = P.version; server = "tpdb_server" }
  | P.Ping -> P.Pong
  | P.Query sql ->
      let ast = Parser.parse sql in
      execute_query t ~sql ~ast
  | P.Prepare sql -> prepare t session sql
  | P.Execute id -> (
      match Hashtbl.find_opt session.prepared id with
      | None ->
          P.Error
            {
              code = P.Unknown_prepared;
              message = Printf.sprintf "no prepared statement %d" id;
            }
      | Some (sql, ast, _afp) -> execute_query t ~sql ~ast)
  | P.Load { name; csv } ->
      let loaded =
        Admission.run t.admission (fun () -> Store.load_csv t.store ~name ~csv)
      in
      ignore (Result_cache.drop_name t.results name);
      P.Loaded
        {
          name = loaded.Store.name;
          version = loaded.Store.version;
          rows = loaded.Store.rows;
        }
  | P.Stats -> P.Stats_reply (stats_json t)
  | P.Openmetrics -> P.Openmetrics_reply (Metrics.to_openmetrics t.metrics)
  | P.Sleep ms ->
      if not t.config.debug_sleep then
        P.Error
          {
            code = P.Protocol_violation;
            message = "SLEEP requires --debug-sleep";
          }
      else
        Admission.run t.admission (fun () ->
            Unix.sleepf (float_of_int ms /. 1000.0);
            P.Pong)
  | P.Close -> P.Bye

let respond t session req =
  match handle t session req with
  | resp -> resp
  | exception Admission.Overloaded { queued; limit } ->
      P.Error
        {
          code = P.Overloaded;
          message =
            Printf.sprintf "admission queue full (%d queued, limit %d)" queued
              limit;
        }
  | exception Parser.Parse_error m ->
      P.Error { code = P.Parse_failed; message = m }
  | exception Lexer.Lex_error (m, pos) ->
      P.Error
        {
          code = P.Parse_failed;
          message = Printf.sprintf "%s (at offset %d)" m pos;
        }
  | exception Planner.Plan_error m ->
      P.Error { code = P.Plan_failed; message = m }
  | exception Csv.Error { path; line; message } ->
      P.Error
        {
          code = P.Csv_failed;
          message =
            (match line with
            | Some l -> Printf.sprintf "%s:%d: %s" path l message
            | None -> Printf.sprintf "%s: %s" path message);
        }
  | exception e ->
      P.Error { code = P.Internal; message = Printexc.to_string e }

let session_loop t session =
  Metrics.incr Metrics.Sessions_opened;
  Atomic.incr t.active_sessions;
  let finally () =
    Metrics.incr Metrics.Sessions_closed;
    Atomic.decr t.active_sessions;
    Mutex.lock t.session_mutex;
    t.session_fds <- List.filter (fun fd -> fd != session.fd) t.session_fds;
    Mutex.unlock t.session_mutex;
    (* close_in closes the shared fd; the out_channel may hold buffered
       bytes already flushed per frame, so only the fd needs closing. *)
    try close_in session.ic with Sys_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let rec loop () =
        match P.read_request session.ic with
        | exception (End_of_file | Sys_error _ | P.Frame_error _) -> ()
        | req -> (
            let resp = respond t session req in
            match P.write_response session.oc resp with
            | exception Sys_error _ -> ()
            | () -> ( match req with P.Close -> () | _ -> loop ()))
      in
      loop ())

(* --- listener --- *)

let bind_listener = function
  | `Unix path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      (fd, Unix.ADDR_UNIX path)
  | `Tcp (host, port) ->
      let addr =
        if String.equal host "" then Unix.inet_addr_loopback
        else Unix.inet_addr_of_string host
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 128;
      (fd, Unix.getsockname fd)

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error ((EBADF | EINVAL | ECONNABORTED), _, _) ->
        if Atomic.get t.stopping then () else loop ()
    | fd, _peer ->
        if Atomic.get t.stopping then Unix.close fd
        else begin
          let session =
            {
              fd;
              ic = Unix.in_channel_of_descr fd;
              oc = Unix.out_channel_of_descr fd;
              prepared = Hashtbl.create 8;
              next_id = 1;
            }
          in
          let thread = Thread.create (fun () -> session_loop t session) () in
          Mutex.lock t.session_mutex;
          t.session_fds <- fd :: t.session_fds;
          t.session_threads <- thread :: t.session_threads;
          Mutex.unlock t.session_mutex;
          loop ()
        end
  in
  loop ()

let start config =
  if config.parallelism < 1 then invalid_arg "Server.start: parallelism < 1";
  (* Reuse an already-installed sink (the bench driver installs its own
     before starting an in-process server) rather than clobbering it. *)
  let metrics =
    match Metrics.active () with
    | Some m -> m
    | None ->
        let m = Metrics.create () in
        Metrics.install m;
        m
  in
  let db = Option.map Db.open_ config.db_dir in
  let store = Store.create ?db ?stats_dir:config.stats_dir () in
  let admission =
    Admission.create ~workers:config.workers ~queue_limit:config.queue_limit
  in
  let listener, bound = bind_listener config.listen in
  let t =
    {
      config;
      store;
      admission;
      plans = Plan_cache.create ~capacity:config.plan_cache_capacity;
      results = Result_cache.create ~capacity:config.result_cache_capacity;
      metrics;
      listener;
      bound;
      accept_thread = None;
      stopping = Atomic.make false;
      session_mutex = Mutex.create ();
      session_fds = [];
      session_threads = [];
      active_sessions = Atomic.make 0;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let store t = t.store

(* close(2) does not interrupt a thread blocked in accept(2); a
   throwaway self-connection does. The accept loop sees [stopping],
   closes the woken connection and returns. *)
let wake_accept t =
  let domain, addr =
    match t.bound with
    | Unix.ADDR_UNIX path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Unix.ADDR_INET (inet, port) ->
        let inet =
          if inet = Unix.inet_addr_any then Unix.inet_addr_loopback else inet
        in
        (Unix.PF_INET, Unix.ADDR_INET (inet, port))
  in
  match Unix.socket domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.connect fd addr with Unix.Unix_error _ -> ());
      ( try Unix.close fd with Unix.Unix_error _ -> ())

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    wake_accept t;
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    (* Shutdown (not close) unblocks session threads parked in read
       while leaving each fd's closing to its own session thread — no
       double-close, no closing a reused descriptor. *)
    Mutex.lock t.session_mutex;
    let fds = t.session_fds and threads = t.session_threads in
    t.session_fds <- [];
    t.session_threads <- [];
    Mutex.unlock t.session_mutex;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds;
    List.iter Thread.join threads;
    Admission.shutdown t.admission;
    match t.config.listen with
    | `Unix path -> ( try Sys.remove path with Sys_error _ -> ())
    | `Tcp _ -> ()
  end
