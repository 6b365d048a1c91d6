type gc = {
  minor_words : int;
  major_words : int;
  promoted_words : int;
  major_collections : int;
  top_heap_words : int;
}

type record = {
  ts : string;
  query : string;
  fingerprint : string;
  total_ms : float;
  rows_in : int;
  rows_out : int;
  wo : int;
  wu : int;
  wn : int;
  spill_bytes : int;
  spill_partitions : int;
  sanitizer_ms : float;
  stages : (string * float) list;
  gc : gc;
  slow : bool;
  trace_file : string option;
}

(* --- writing --- *)

let to_json r =
  Json.obj
    ([
       ("ts", Json.str r.ts);
       ("query", Json.str r.query);
       ("fingerprint", Json.str r.fingerprint);
       ("total_ms", Json.float r.total_ms);
       ("rows_in", Json.int r.rows_in);
       ("rows_out", Json.int r.rows_out);
       ( "windows",
         Json.obj
           [
             ("wo", Json.int r.wo); ("wu", Json.int r.wu); ("wn", Json.int r.wn);
           ] );
       ("spill_bytes", Json.int r.spill_bytes);
       ("spill_partitions", Json.int r.spill_partitions);
       ("sanitizer_ms", Json.float r.sanitizer_ms);
       ( "stages",
         Json.obj (List.map (fun (k, ms) -> (k, Json.float ms)) r.stages) );
       ( "gc",
         Json.obj
           [
             ("minor_words", Json.int r.gc.minor_words);
             ("major_words", Json.int r.gc.major_words);
             ("promoted_words", Json.int r.gc.promoted_words);
             ("major_collections", Json.int r.gc.major_collections);
             ("top_heap_words", Json.int r.gc.top_heap_words);
           ] );
       ("slow", if r.slow then "true" else "false");
     ]
    @ match r.trace_file with
      | None -> []
      | Some f -> [ ("trace_file", Json.str f) ])

let append path r =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json r);
      output_char oc '\n')

(* --- a minimal JSON reader for [load] ---------------------------------

   Just enough to read back what [to_json] writes (plus foreign fields,
   which are ignored), without adding a parser dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
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
    match peek () with Some d when d = c -> advance () | _ -> raise Bad_json
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      value
    end
    else raise Bad_json
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> raise Bad_json
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then raise Bad_json;
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with _ -> raise Bad_json
              in
              pos := !pos + 4;
              (* the writer only \u-escapes control characters *)
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
          | None -> raise Bad_json);
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
    | None -> raise Bad_json
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
            | _ -> raise Bad_json
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
            | _ -> raise Bad_json
          in
          items []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
    | None -> raise Bad_json
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then raise Bad_json;
  v

let field k = function Obj fields -> List.assoc_opt k fields | _ -> None
let str_of ?(default = "") j k =
  match field k j with Some (Str s) -> s | _ -> default
let num_of ?(default = 0.0) j k =
  match field k j with Some (Num x) -> x | _ -> default
let int_of ?default j k = int_of_float (num_of ?default:(Option.map float_of_int default) j k)
let bool_of j k = match field k j with Some (Bool b) -> b | _ -> false

let record_of_json j =
  let windows = Option.value (field "windows" j) ~default:(Obj []) in
  let gcj = Option.value (field "gc" j) ~default:(Obj []) in
  {
    ts = str_of j "ts";
    query = str_of j "query";
    fingerprint = str_of j "fingerprint";
    total_ms = num_of j "total_ms";
    rows_in = int_of j "rows_in";
    rows_out = int_of j "rows_out";
    wo = int_of windows "wo";
    wu = int_of windows "wu";
    wn = int_of windows "wn";
    (* absent in logs written before the out-of-core executor: 0 *)
    spill_bytes = int_of j "spill_bytes";
    spill_partitions = int_of j "spill_partitions";
    sanitizer_ms = num_of j "sanitizer_ms";
    stages =
      (match field "stages" j with
      | Some (Obj fields) ->
          List.filter_map
            (fun (k, v) -> match v with Num x -> Some (k, x) | _ -> None)
            fields
      | _ -> []);
    gc =
      {
        minor_words = int_of gcj "minor_words";
        major_words = int_of gcj "major_words";
        promoted_words = int_of gcj "promoted_words";
        major_collections = int_of gcj "major_collections";
        top_heap_words = int_of gcj "top_heap_words";
      };
    slow = bool_of j "slow";
    trace_file =
      (match field "trace_file" j with Some (Str f) -> Some f | _ -> None);
  }

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go acc
        | line -> (
            match record_of_json (parse_json line) with
            | r -> go (r :: acc)
            | exception _ -> go acc)
      in
      go [])

(* --- summarize --- *)

type group = {
  fp : string;
  mutable runs : int;
  mutable total_us : int;
  mutable slow_runs : int;
  mutable sample : string;  (** query text of the first run seen *)
  hist : Hist.t;  (** per-run total time in µs *)
}

let truncate_query q =
  let q =
    String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) q
  in
  if String.length q <= 42 then q else String.sub q 0 39 ^ "..."

let summarize ?(top = 10) ?(by = `Total) records =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun r ->
      let g =
        match Hashtbl.find_opt tbl r.fingerprint with
        | Some g -> g
        | None ->
            let g =
              {
                fp = r.fingerprint;
                runs = 0;
                total_us = 0;
                slow_runs = 0;
                sample = r.query;
                hist = Hist.create ();
              }
            in
            Hashtbl.add tbl r.fingerprint g;
            order := g :: !order;
            g
      in
      let us = int_of_float (r.total_ms *. 1000.0) in
      g.runs <- g.runs + 1;
      g.total_us <- g.total_us + us;
      if r.slow then g.slow_runs <- g.slow_runs + 1;
      Hist.record g.hist us)
    records;
  let key g =
    match by with
    | `Total -> float_of_int g.total_us
    | `Mean -> float_of_int g.total_us /. float_of_int g.runs
  in
  let groups =
    List.stable_sort (fun a b -> Float.compare (key b) (key a)) (List.rev !order)
  in
  let shown = if List.length groups > top then top else List.length groups in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d queries, %d distinct plans%s\n" (List.length records)
    (List.length groups)
    (if shown < List.length groups then
       Printf.sprintf " (top %d by %s time)" shown
         (match by with `Total -> "total" | `Mean -> "mean")
     else "");
  Printf.bprintf b "%-16s %5s %5s %10s %9s %9s %9s %9s %9s  %s\n" "fingerprint"
    "runs" "slow" "total_ms" "mean_ms" "p50_ms" "p90_ms" "p99_ms" "max_ms"
    "query";
  let ms us = float_of_int us /. 1000.0 in
  List.iteri
    (fun i g ->
      if i < top then begin
        let s = Hist.snapshot g.hist in
        Printf.bprintf b "%-16s %5d %5d %10.1f %9.1f %9.1f %9.1f %9.1f %9.1f  %s\n"
          g.fp g.runs g.slow_runs (ms g.total_us)
          (ms g.total_us /. float_of_int g.runs)
          (ms (Hist.quantile s 0.5))
          (ms (Hist.quantile s 0.9))
          (ms (Hist.quantile s 0.99))
          (ms s.Hist.max) (truncate_query g.sample)
      end)
    groups;
  Buffer.contents b
