module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula

exception Error of { path : string; line : int option; message : string }

let () =
  Printexc.register_printer (function
    | Error { path; line; message } ->
        Some
          (match line with
          | Some n -> Printf.sprintf "%s:%d: %s" path n message
          | None -> Printf.sprintf "%s: %s" path message)
    | _ -> None)

let error ~path ?line fmt =
  Printf.ksprintf (fun message -> raise (Error { path; line; message })) fmt

(* The canonical CSV text, written with the same buffer writers as
   [Relation.to_string]; the server store's content digest hashes it.
   [flush] is handed the buffer whenever it holds a chunk and must
   empty it. A chunk only bounds the buffer: [to_channel] copies it into
   the channel without allocating. *)
let chunk_bytes = 65536

let add_document buf r ~flush =
  List.iter
    (fun col ->
      Buffer.add_string buf col;
      Buffer.add_char buf ',')
    (Schema.columns (Relation.schema r));
  Buffer.add_string buf "lineage,ts,te,p\n";
  Relation.iter
    (fun (tp : Tuple.t) ->
      if Buffer.length buf >= chunk_bytes then flush buf;
      for i = 0 to Array.length tp.fact - 1 do
        Value.add_to_buffer buf tp.fact.(i);
        Buffer.add_char buf ','
      done;
      Formula.add_to_buffer_ascii buf tp.lineage;
      Buffer.add_char buf ',';
      Tpdb_text.Numbers.add_int buf (Interval.ts tp.iv);
      Buffer.add_char buf ',';
      Tpdb_text.Numbers.add_int buf (Interval.te tp.iv);
      Buffer.add_char buf ',';
      Tpdb_text.Numbers.add_g12 buf tp.p;
      Buffer.add_char buf '\n')
    r

let to_string r =
  let buf = Buffer.create 4096 in
  add_document buf r ~flush:ignore;
  Buffer.contents buf

let to_channel oc r =
  let buf = Buffer.create 4096 in
  let flush buf =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  add_document buf r ~flush;
  flush buf

let save path r =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc r)

let of_lines ~name ?(path = "<csv>") lines =
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
              (* [float_of_string_opt] happily parses nan, inf and any
                 sign/magnitude; only finite values in [0,1] are valid
                 marginals — anything else would poison downstream
                 weighted model counting. *)
              match float_of_string_opt (String.trim p) with
              | None -> fail "probability is not a number: '%s'" p
              | Some v when Float.is_nan v -> fail "probability is NaN: '%s'" p
              | Some v when not (Float.is_finite v) ->
                  fail "probability is infinite: '%s'" p
              | Some v when v < 0.0 || v > 1.0 ->
                  fail "probability %g out of [0,1]" v
              | Some v -> v
            in
            Tuple.make ~fact:(Fact.of_strings values) ~lineage ~iv ~p
        | _ -> fail "wrong field count: expected %d, got %d" (ncols + 4)
                 (List.length cells)
      in
      let tuples =
        List.concat
          (List.mapi
             (fun i line -> if String.equal line "" then [] else [ parse_row (i + 2) line ])
             rows)
      in
      Relation.of_tuples schema tuples

let load ~name path =
  let ic = try open_in path with Sys_error msg -> error ~path "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      of_lines ~name ~path (read []))
