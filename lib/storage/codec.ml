module Value = Tpdb_relation.Value
module Fact = Tpdb_relation.Fact
module Tuple = Tpdb_relation.Tuple
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var
module Interval = Tpdb_interval.Interval

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

type reader = { bytes : Bytes.t; mutable pos : int }

let reader bytes = { bytes; pos = 0 }
let reader_at bytes pos = { bytes; pos }

(* [n > length - pos], not [pos + n > length]: a corrupt length near
   [max_int] must not wrap past the check. *)
let need r n =
  if n < 0 || n > Bytes.length r.bytes - r.pos then
    corrupt "truncated record at offset %d (need %d bytes)" r.pos n

let write_uint16 buf v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.write_uint16";
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))

let read_uint16 r =
  need r 2;
  let v =
    Char.code (Bytes.get r.bytes r.pos)
    lor (Char.code (Bytes.get r.bytes (r.pos + 1)) lsl 8)
  in
  r.pos <- r.pos + 2;
  v

(* Fixed-width fields are little-endian; [Buffer.add_int64_le] and
   [Bytes.get_int64_le] write and read those same bytes. *)
let write_int64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

let read_int64 r =
  need r 8;
  let v = Int64.to_int (Bytes.get_int64_le r.bytes r.pos) in
  r.pos <- r.pos + 8;
  v

let write_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let read_float r =
  need r 8;
  let f = Int64.float_of_bits (Bytes.get_int64_le r.bytes r.pos) in
  r.pos <- r.pos + 8;
  f

let write_string buf s =
  write_int64 buf (String.length s);
  Buffer.add_string buf s

let read_string r =
  let len = read_int64 r in
  if len < 0 then corrupt "negative string length";
  need r len;
  let s = Bytes.sub_string r.bytes r.pos len in
  r.pos <- r.pos + len;
  s

let write_value buf = function
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.S s ->
      Buffer.add_char buf '\001';
      write_string buf s
  | Value.I i ->
      Buffer.add_char buf '\002';
      write_int64 buf i
  | Value.F f ->
      Buffer.add_char buf '\003';
      write_float buf f

let read_value r =
  need r 1;
  let tag = Bytes.get r.bytes r.pos in
  r.pos <- r.pos + 1;
  match tag with
  | '\000' -> Value.Null
  | '\001' -> Value.S (read_string r)
  | '\002' -> Value.I (read_int64 r)
  | '\003' -> Value.F (read_float r)
  | c -> corrupt "unknown value tag %C" c

let write_tuple buf tp =
  let fact = Tuple.fact tp in
  write_uint16 buf (Fact.arity fact);
  for i = 0 to Fact.arity fact - 1 do
    write_value buf (Fact.get fact i)
  done;
  write_string buf (Formula.to_string_ascii (Tuple.lineage tp));
  write_int64 buf (Interval.ts (Tuple.iv tp));
  write_int64 buf (Interval.te (Tuple.iv tp));
  write_float buf (Tuple.p tp)

let read_tuple r =
  let arity = read_uint16 r in
  let values = List.init arity (fun _ -> read_value r) in
  let lineage_text = read_string r in
  let lineage =
    try Formula.of_string lineage_text
    with Invalid_argument msg -> corrupt "bad lineage: %s" msg
  in
  let ts = read_int64 r in
  let te = read_int64 r in
  let p = read_float r in
  if ts >= te then corrupt "empty interval [%d,%d)" ts te;
  if not (p >= 0.0 && p <= 1.0) then corrupt "probability %g out of range" p;
  Tuple.make ~fact:(Fact.of_values values) ~lineage ~iv:(Interval.make ts te) ~p

let tuple_size tp =
  let buf = Buffer.create 64 in
  write_tuple buf tp;
  Buffer.length buf

(* --- varints --- *)

(* Zigzag maps the signed 63-bit range onto the unsigned one so small
   deltas of either sign stay one varint byte. [lsl]/[lxor] wrap, so the
   pair is a bijection even at the int extremes — which means the
   zigzag image can occupy the top bit and read back "negative" as an
   OCaml int, so the shared writer emits the raw bit pattern ([lsr]
   shifts zeros in, so the loop ends) and only the public
   {!write_varint} rejects negative input. *)
let write_varint_bits buf v =
  let v = ref v in
  while !v < 0 || !v >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let write_varint buf v =
  if v < 0 then invalid_arg "Codec.write_varint: negative";
  write_varint_bits buf v

(* At most nine bytes (63 value bits); a tenth continuation byte is
   corruption. *)
let read_varint r =
  let bytes = r.bytes in
  let pos = r.pos in
  if pos < Bytes.length bytes && Char.code (Bytes.unsafe_get bytes pos) < 0x80
  then begin
    r.pos <- pos + 1;
    Char.code (Bytes.unsafe_get bytes pos)
  end
  else begin
    let acc = ref 0 and shift = ref 0 and more = ref true in
    while !more do
      if !shift > 56 then corrupt "varint too long at offset %d" r.pos;
      need r 1;
      let b = Char.code (Bytes.unsafe_get bytes r.pos) in
      r.pos <- r.pos + 1;
      acc := !acc lor ((b land 0x7F) lsl !shift);
      if b land 0x80 = 0 then more := false else shift := !shift + 7
    done;
    !acc
  end

let zigzag v = (v lsl 1) lxor (v asr 62)
let unzigzag v = (v lsr 1) lxor (- (v land 1))
let write_zigzag buf v = write_varint_bits buf (zigzag v)
let read_zigzag r = unzigzag (read_varint r)

(* --- columnar tuple blocks --- *)

module Column = struct
  (* The lineage dictionary: relation tags in order of first appearance,
     where one tuple's new tags appear in [Formula.vars] order (sorted by
     tag). Blocks are usually dominated by one tag, so the last tag seen
     short-circuits the table. *)
  type dict = {
    index : (string, int) Hashtbl.t;
    mutable order : string list;  (** reversed *)
    mutable last : string;
    mutable last_index : int;
  }

  let dict_create () =
    { index = Hashtbl.create 8; order = []; last = ""; last_index = -1 }

  let dict_find d rel =
    if rel == d.last || String.equal rel d.last then d.last_index
    else begin
      let i =
        match Hashtbl.find_opt d.index rel with
        | Some i -> i
        | None ->
            let i = Hashtbl.length d.index in
            Hashtbl.add d.index rel i;
            d.order <- rel :: d.order;
            i
      in
      d.last <- rel;
      d.last_index <- i;
      i
    end

  let dict_add_vars d f =
    match Formula.view f with
    | Formula.Var v -> ignore (dict_find d (Var.rel v))
    | Formula.True | Formula.False -> ()
    | Formula.Not _ | Formula.And _ | Formula.Or _ ->
        List.iter (fun v -> ignore (dict_find d (Var.rel v))) (Formula.vars f)

  let rec write_formula buf d f =
    match Formula.view f with
    | Formula.False -> Buffer.add_char buf '\000'
    | Formula.True -> Buffer.add_char buf '\001'
    | Formula.Var v ->
        Buffer.add_char buf '\002';
        write_varint_bits buf (dict_find d (Var.rel v));
        write_varint_bits buf (Var.idx v)
    | Formula.Not f ->
        Buffer.add_char buf '\003';
        write_formula buf d f
    | Formula.And fs ->
        Buffer.add_char buf '\004';
        write_juncts buf d fs
    | Formula.Or fs ->
        Buffer.add_char buf '\005';
        write_juncts buf d fs

  and write_juncts buf d fs =
    write_varint_bits buf (List.length fs);
    let rec go = function
      | [] -> ()
      | f :: rest ->
          write_formula buf d f;
          go rest
    in
    go fs

  let encode_sub buf tuples n =
    write_varint buf n;
    (* interval columns: delta-zigzag starts, varint (duration - 1) *)
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let ts = Interval.ts (Tuple.iv tuples.(i)) in
      write_zigzag buf (ts - !prev);
      prev := ts
    done;
    (* raw bits: an interval longer than [max_int] wraps here and wraps
       back when decoded *)
    for i = 0 to n - 1 do
      let iv = Tuple.iv tuples.(i) in
      write_varint_bits buf (Interval.te iv - Interval.ts iv - 1)
    done;
    (* probability column: raw IEEE f64, little-endian *)
    for i = 0 to n - 1 do
      write_float buf (Tuple.p tuples.(i))
    done;
    (* lineage: dictionary of distinct relation tags, then structural
       bytecode over the formula views with dictionary-coded variables *)
    let d = dict_create () in
    for i = 0 to n - 1 do
      dict_add_vars d (Tuple.lineage tuples.(i))
    done;
    write_varint buf (Hashtbl.length d.index);
    List.iter
      (fun tag ->
        write_varint buf (String.length tag);
        Buffer.add_string buf tag)
      (List.rev d.order);
    for i = 0 to n - 1 do
      write_formula buf d (Tuple.lineage tuples.(i))
    done;
    (* facts last, through the tagged value codec *)
    for i = 0 to n - 1 do
      let fact = Tuple.fact tuples.(i) in
      write_varint buf (Array.length fact);
      for j = 0 to Array.length fact - 1 do
        write_value buf fact.(j)
      done
    done

  let encode buf tuples = encode_sub buf tuples (Array.length tuples)

  (* A dictionary tag is checked once, when first used by a variable
     ([Var.make]'s rules); its variables are then built directly. *)
  type tags = { names : string array; checked : bool array }

  let var_of tags i idx =
    if i < 0 || i >= Array.length tags.names then
      corrupt "lineage dictionary index %d out of range" i;
    let rel = tags.names.(i) in
    if not tags.checked.(i) then begin
      (match Var.make rel 0 with
      | _ -> ()
      | exception Invalid_argument msg -> corrupt "bad lineage var: %s" msg);
      tags.checked.(i) <- true
    end;
    if idx < 0 then corrupt "bad lineage var: negative index";
    { Var.rel; idx }

  let rec read_formula r tags =
    need r 1;
    let tag = Bytes.unsafe_get r.bytes r.pos in
    r.pos <- r.pos + 1;
    match tag with
    | '\002' ->
        let i = read_varint r in
        let idx = read_varint r in
        Formula.var (var_of tags i idx)
    | '\000' -> Formula.false_
    | '\001' -> Formula.true_
    | '\003' -> Formula.neg (read_formula r tags)
    | ('\004' | '\005') as c ->
        let n = read_varint r in
        if n < 2 then corrupt "connective with %d juncts" n;
        let rec read_n n acc =
          if n = 0 then List.rev acc
          else read_n (n - 1) (read_formula r tags :: acc)
        in
        let juncts = read_n n [] in
        if Char.equal c '\004' then Formula.conj juncts else Formula.disj juncts
    | c -> corrupt "unknown lineage bytecode %C" c

  let placeholder =
    Tuple.make ~fact:[||] ~lineage:Formula.true_ ~iv:(Interval.make 0 1) ~p:0.0

  let decode_into r dst off =
    let n = read_varint r in
    (* every tuple contributes at least one start-delta byte *)
    if n > Bytes.length r.bytes - r.pos then
      corrupt "block count %d exceeds payload" n;
    (* a count with the sign bit set decodes as an empty block, as it
       always has: the loops below never run *)
    let n = max n 0 in
    if off < 0 || n > Array.length dst - off then
      corrupt "block of %d tuples overflows its partition" n;
    let ts = Array.make n 0 in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let v = !prev + read_zigzag r in
      ts.(i) <- v;
      prev := v
    done;
    let ivs = Array.make n (Tuple.iv placeholder) in
    for i = 0 to n - 1 do
      let te = ts.(i) + 1 + read_varint r in
      if te <= ts.(i) then corrupt "empty interval [%d,%d)" ts.(i) te;
      ivs.(i) <- Interval.make ts.(i) te
    done;
    let p = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let v = read_float r in
      if not (v >= 0.0 && v <= 1.0) then
        corrupt "probability %g out of range" v;
      p.(i) <- v
    done;
    let ntags = read_varint r in
    if ntags < 0 || ntags > Bytes.length r.bytes - r.pos then
      corrupt "lineage dictionary size %d exceeds payload" ntags;
    let names = Array.make ntags "" in
    for i = 0 to ntags - 1 do
      let len = read_varint r in
      need r len;
      names.(i) <- Bytes.sub_string r.bytes r.pos len;
      r.pos <- r.pos + len
    done;
    let tags = { names; checked = Array.make ntags false } in
    let lineage = Array.make n Formula.true_ in
    for i = 0 to n - 1 do
      lineage.(i) <- read_formula r tags
    done;
    for i = 0 to n - 1 do
      let arity = read_varint r in
      if arity < 0 || arity > 0xFFFF then corrupt "fact arity %d out of range" arity;
      let fact = Array.make arity Value.Null in
      for j = 0 to arity - 1 do
        fact.(j) <- read_value r
      done;
      dst.(off + i) <-
        (try Tuple.make ~fact ~lineage:lineage.(i) ~iv:ivs.(i) ~p:p.(i)
         with Invalid_argument msg -> corrupt "bad tuple in block: %s" msg)
    done;
    n

  let decode r =
    let start = r.pos in
    let n = read_varint r in
    r.pos <- start;
    let fits = n > 0 && n <= Bytes.length r.bytes - r.pos in
    let dst = Array.make (if fits then n else 0) placeholder in
    ignore (decode_into r dst 0);
    dst
end
