module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var

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

(* {2 Parsing}

   [of_string] reads the document in place: one pass finds each line's
   commas, and every cell is parsed from its slice of the text. The
   common cell shapes have fast paths that allocate only the result; any
   other cell goes through the general parser on a copy of its text, so
   values, accepted inputs and error messages are those of
   [Value.of_string_guess], [int_of_string_opt (String.trim _)],
   [float_of_string_opt (String.trim _)] and [Formula.of_string]. *)

let is_digit c = c >= '0' && c <= '9'

let is_ident c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || is_digit c || c = '_'

(* [s.[i..j)] as a decimal int when it is an optional '-' and 1 to 18
   digits, nothing else; [min_int] (never such a value) otherwise. *)
let plain_int s i j =
  let k = if i < j && s.[i] = '-' then i + 1 else i in
  if j - k < 1 || j - k > 18 then min_int
  else begin
    let n = ref 0 and ok = ref true and p = ref k in
    while !ok && !p < j do
      let c = s.[!p] in
      if is_digit c then n := (!n * 10) + (Char.code c - 48) else ok := false;
      incr p
    done;
    if not !ok then min_int else if k > i then - !n else !n
  end

let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* [s.[i..j)] as a float when it is digits with at most one '.', at most
   18 digit characters, an integer mantissa up to 2^53 and at most 22
   fraction digits; [nan] otherwise. Mantissa and power of ten are then
   both exact doubles, so one division rounds correctly — the same bits
   as [float_of_string]. *)
let plain_float s i j =
  let m = ref 0 and digits = ref 0 and frac = ref (-1) and ok = ref true in
  let p = ref i in
  while !ok && !p < j do
    let c = s.[!p] in
    if is_digit c then begin
      m := (!m * 10) + (Char.code c - 48);
      incr digits;
      if !frac >= 0 then incr frac
    end
    else if c = '.' && !frac < 0 then frac := 0
    else ok := false;
    incr p
  done;
  if (not !ok) || !digits = 0 || !digits > 18 || !m > 1 lsl 53 || !frac > 22
  then Float.nan
  else if !frac <= 0 then float_of_int !m
  else float_of_int !m /. pow10.(!frac)

let value_cell s i j =
  if i = j then Value.Null
  else
    match s.[i] with
    | '-' when j = i + 1 -> Value.Null
    | ('a' .. 'z' | 'A' .. 'Z') as c when c <> 'n' && c <> 'i' && c <> 'N' && c <> 'I' ->
        (* neither int_of_string nor float_of_string accepts a leading
           letter other than those of nan/inf/infinity *)
        Value.S (String.sub s i (j - i))
    | _ ->
        let n = plain_int s i j in
        if n <> min_int then Value.I n
        else Value.of_string_guess (String.sub s i (j - i))

let same_slice t s i len =
  String.length t = len
  &&
  let rec go k = k >= len || (t.[k] = s.[i + k] && go (k + 1)) in
  go 0

let rec all_ident s i j = i >= j || (is_ident s.[i] && all_ident s (i + 1) j)

(* A bare variable — tag characters, then 1 to 18 digits — becomes
   exactly what [Formula.of_string] would build, without the parse.
   Consecutive rows mostly share their tag, so [tag] keeps the last one
   for reuse. *)
let lineage_cell ~tag s i j =
  let cut = ref j in
  while !cut > i && is_digit s.[!cut - 1] do decr cut done;
  if !cut > i && !cut < j && j - !cut <= 18 && all_ident s i !cut then begin
    let len = !cut - i in
    if not (same_slice !tag s i len) then tag := String.sub s i len;
    Formula.var (Var.make !tag (plain_int s !cut j))
  end
  else Formula.of_string (String.sub s i (j - i))

let of_string ~name ?(path = "<csv>") text =
  let len = String.length text in
  if len = 0 then error ~path "empty input: expected a header line";
  let rec eol i = if i < len && text.[i] <> '\n' then eol (i + 1) else i in
  let header_end = eol 0 in
  let fields = String.split_on_char ',' (String.sub text 0 header_end) in
  let ncols = List.length fields - 4 in
  if ncols < 0 then
    error ~path ~line:1
      "header too short: expected [col1,...,colN,lineage,ts,te,p], got %d \
       field(s)"
      (List.length fields);
  let schema =
    try Schema.make ~name (List.filteri (fun i _ -> i < ncols) fields)
    with Invalid_argument msg -> error ~path ~line:1 "bad header: %s" msg
  in
  (* The current row's cell [k] is [text.[bounds.(k) + 1 .. bounds.(k + 1))]:
     [bounds] holds the position before the row, its commas, and the
     row's end. *)
  let bounds = Array.make (ncols + 5) 0 in
  let lineno = ref 1 in
  let fail fmt = error ~path ~line:!lineno fmt in
  let first k = bounds.(k) + 1 and last k = bounds.(k + 1) in
  let raw k = String.sub text (first k) (last k - first k) in
  let int_field what k =
    let n = plain_int text (first k) (last k) in
    if n <> min_int then n
    else
      match int_of_string_opt (String.trim (raw k)) with
      | Some n -> n
      | None -> fail "%s is not an integer: '%s'" what (raw k)
  in
  let tag = ref "" in
  let parse_row start stop =
    bounds.(0) <- start - 1;
    let commas = ref 0 in
    for p = start to stop - 1 do
      if text.[p] = ',' then begin
        if !commas < ncols + 3 then bounds.(!commas + 1) <- p;
        incr commas
      end
    done;
    if !commas <> ncols + 3 then
      fail "wrong field count: expected %d, got %d" (ncols + 4) (!commas + 1);
    bounds.(ncols + 4) <- stop;
    let lineage =
      try lineage_cell ~tag text (first ncols) (last ncols)
      with _ -> fail "unparsable lineage: '%s'" (raw ncols)
    in
    let ts = int_field "ts" (ncols + 1) in
    let te = int_field "te" (ncols + 2) in
    let iv =
      try Interval.make ts te with
      | Invalid_argument msg -> fail "bad interval: %s" msg
      | Interval.Empty_interval (a, b) ->
          fail "empty interval [%d,%d): ts must be below te" a b
    in
    let p =
      let k = ncols + 3 in
      let v = plain_float text (first k) (last k) in
      if not (Float.is_nan v) then v
      else
        (* [float_of_string_opt] happily parses nan, inf and any
           sign/magnitude; only finite values in [0,1] are valid
           marginals — anything else would poison downstream weighted
           model counting. *)
        match float_of_string_opt (String.trim (raw k)) with
        | None -> fail "probability is not a number: '%s'" (raw k)
        | Some v when Float.is_nan v -> fail "probability is NaN: '%s'" (raw k)
        | Some v when not (Float.is_finite v) ->
            fail "probability is infinite: '%s'" (raw k)
        | Some v -> v
    in
    if p < 0.0 || p > 1.0 then fail "probability %g out of [0,1]" p;
    let fact = Array.make ncols Value.Null in
    for k = 0 to ncols - 1 do
      fact.(k) <- value_cell text (first k) (last k)
    done;
    Tuple.make ~fact ~lineage ~iv ~p
  in
  (* one slot per line after the header, empty lines included *)
  let rec count n i = if i >= len then n else count (n + 1) (eol i + 1) in
  let tuples = ref [||] and rows = ref 0 in
  let rec go i =
    incr lineno;
    if i < len then begin
      let stop = eol i in
      if stop > i then begin
        let tp = parse_row i stop in
        if !rows = 0 then tuples := Array.make (count 0 i) tp;
        !tuples.(!rows) <- tp;
        incr rows
      end;
      go (stop + 1)
    end
  in
  go (header_end + 1);
  let tuples =
    if !rows = Array.length !tuples then !tuples else Array.sub !tuples 0 !rows
  in
  Relation.of_array schema tuples

let load ~name path =
  let ic = try open_in path with Sys_error msg -> error ~path "%s" msg in
  let text =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  of_string ~name ~path text
