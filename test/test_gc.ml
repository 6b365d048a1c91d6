(* No request path forces a minor collection. On OCaml 5, [Array.make n x]
   (and [init], [map], [of_list], [of_seq], which build on it) with more
   than 256 elements runs a stop-the-world minor collection when [x] is
   still in the minor heap. Each shape below runs once to warm up — a
   module-level placeholder is young until the first minor collection —
   then once counted by the runtime's event ring. *)

module Csv = Tpdb_relation.Csv
module Relation = Tpdb_relation.Relation
module Datasets = Tpdb_workload.Datasets
module Catalog = Tpdb_query.Catalog
module Parser = Tpdb_query.Parser
module Planner = Tpdb_query.Planner
module Nj = Tpdb_joins.Nj
module Theta = Tpdb_windows.Theta
module Gc_events = Tpdb_obs.Gc_events
module Server = Tpdb_server_lib.Server
module Client = Tpdb_server_lib.Client

let render rel = Format.asprintf "%a" Relation.pp rel

let check_no_forced name shape =
  ignore (shape ());
  let (), counts = Gc_events.count (fun () -> ignore (shape ())) in
  Alcotest.(check int) (name ^ ": events lost") 0 counts.Gc_events.lost;
  Alcotest.(check int)
    (Printf.sprintf "%s: forced minor collections (of %d)" name counts.Gc_events.minor)
    0 counts.Gc_events.forced_make_vect

let with_csv_pair (r, s) f =
  let save rel =
    let path = Filename.temp_file "tpdb_gc" ".csv" in
    Csv.save path rel;
    path
  in
  let rpath = save r and spath = save s in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ rpath; spath ]) (fun () -> f rpath spath)

let catalog rels =
  let c = Catalog.create () in
  List.iter (Catalog.register c) rels;
  c

let run_sql c sql = render (Planner.run (Planner.plan ~sanitize:false c (Parser.parse sql)))

let four = [ "ANTIJOIN"; "LEFT TPJOIN"; "RIGHT TPJOIN"; "FULL TPJOIN" ]

let test_csv_load () =
  with_csv_pair (Datasets.Webkit.pair ~seed:7 4000) @@ fun rpath spath ->
  check_no_forced "Csv.load" (fun () -> (Csv.load ~name:"r" rpath, Csv.load ~name:"s" spath))

let test_meteo_round () =
  let c = catalog (let r, s = Datasets.Meteo.pair ~seed:7 500 in [ r; s ]) in
  check_no_forced "Meteo round" (fun () ->
      List.map (fun op -> run_sql c (Printf.sprintf "SELECT * FROM r %s s ON r.Metric = s.Metric" op)) four)

let test_spilled_join () =
  let r, s = Datasets.Webkit.pair ~seed:7 4000 in
  let options = Nj.options ~sanitize:false ~mem_budget:(256 * 1024) () in
  check_no_forced "spilled full outer join" (fun () ->
      render (Nj.join ~options ~kind:Nj.Full ~theta:(Theta.eq 0 0) r s))

let test_parallel_join () =
  let r, s = Datasets.Webkit.pair ~seed:7 2000 in
  let options = Nj.options ~sanitize:false ~parallelism:2 () in
  check_no_forced "parallelism 2 join" (fun () ->
      List.map
        (fun kind -> render (Nj.join ~options ~kind ~theta:(Theta.eq 0 0) r s))
        Nj.[ Anti; Left; Full ])

let test_where_timeslice () =
  let c = catalog (let r, s = Datasets.Webkit.pair ~seed:7 4000 in [ r; s ]) in
  check_no_forced "WHERE / timeslice" (fun () ->
      List.map (run_sql c)
        [
          "SELECT * FROM r DURING [0,5000000)";
          "SELECT DISTINCT File FROM r DURING [0,500)";
          "SELECT * FROM r WHERE File <> 'x'";
          "SELECT * FROM r LEFT TPJOIN s ON r.File = s.File WHERE r.Rev <> 'r1' DURING [0,5000000)";
        ])

let test_server_cycle () =
  let r, s = Datasets.Webkit.pair ~seed:7 2000 in
  let r_csv = Csv.to_string r in
  let server = Server.start (Server.default_config (`Tcp ("127.0.0.1", 0))) in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Option.get (Server.port server) in
  let client = Client.connect ~client:"gc" (`Tcp ("127.0.0.1", port)) in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  ignore (Client.load client ~name:"s" ~csv:(Csv.to_string s));
  check_no_forced "server LOAD + queries" (fun () ->
      ignore (Client.load client ~name:"r" ~csv:r_csv);
      List.map
        (fun op ->
          (Client.query client (Printf.sprintf "SELECT * FROM r %s s ON r.File = s.File" op)).Client.text)
        four)

let suite =
  [
    Alcotest.test_case "Csv.load forces no minor collection" `Quick test_csv_load;
    Alcotest.test_case "Meteo round forces no minor collection" `Quick test_meteo_round;
    Alcotest.test_case "spilled join forces no minor collection" `Quick test_spilled_join;
    Alcotest.test_case "parallel join forces no minor collection" `Quick test_parallel_join;
    Alcotest.test_case "WHERE/timeslice forces no minor collection" `Quick test_where_timeslice;
    Alcotest.test_case "server cycle forces no minor collection" `Quick test_server_cycle;
  ]
