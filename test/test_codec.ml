(* The columnar block codec's bytes, pinned.

   Spill files are private to one join, so no file written by an older
   build is ever read back; but the spill accounting (Spill_bytes,
   partition sizes, the pool's page pattern) is a function of the
   encoded bytes, and so is every committed benchmark figure that
   counts them. The golden digests below were computed with the
   original closure-per-call encoder; any codec rewrite must keep them.

   The decoder is checked against a frozen copy of that original
   decoder ([Old]), on valid blocks and on malformed ones: where the old
   decoder returns, the current one returns the same tuples (values,
   lineage [==], interval, probability bits) and stops at the same
   offset; where the old one raised [Codec.Corrupt] or any other
   exception, the current one raises [Codec.Corrupt]. *)

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Var = Tpdb_lineage.Var
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Codec = Tpdb_storage.Codec

(* --- the original decoder, frozen ------------------------------------ *)

module Old = struct
  exception Corrupt = Codec.Corrupt

  let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

  let need (r : Codec.reader) n =
    if r.pos + n > Bytes.length r.bytes then
      corrupt "truncated record at offset %d (need %d bytes)" r.pos n

  let read_int64 (r : Codec.reader) =
    need r 8;
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (Char.code (Bytes.get r.bytes (r.pos + i))))
    done;
    r.pos <- r.pos + 8;
    Int64.to_int !v

  let read_float (r : Codec.reader) =
    need r 8;
    let bits = ref 0L in
    for i = 7 downto 0 do
      bits :=
        Int64.logor (Int64.shift_left !bits 8)
          (Int64.of_int (Char.code (Bytes.get r.bytes (r.pos + i))))
    done;
    r.pos <- r.pos + 8;
    Int64.float_of_bits !bits

  let read_string (r : Codec.reader) =
    let len = read_int64 r in
    if len < 0 then corrupt "negative string length";
    need r len;
    let s = Bytes.sub_string r.bytes r.pos len in
    r.pos <- r.pos + len;
    s

  let read_value (r : Codec.reader) =
    need r 1;
    let tag = Bytes.get r.bytes r.pos in
    r.pos <- r.pos + 1;
    match tag with
    | '\000' -> Value.Null
    | '\001' -> Value.S (read_string r)
    | '\002' -> Value.I (read_int64 r)
    | '\003' -> Value.F (read_float r)
    | c -> corrupt "unknown value tag %C" c

  let read_varint (r : Codec.reader) =
    let rec go shift acc =
      if shift > 56 then corrupt "varint too long at offset %d" r.pos;
      need r 1;
      let b = Char.code (Bytes.get r.bytes r.pos) in
      r.pos <- r.pos + 1;
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let unzigzag v = (v lsr 1) lxor -(v land 1)
  let read_zigzag r = unzigzag (read_varint r)

  let read_formula (r : Codec.reader) dict =
    let tag_of i =
      if i < 0 || i >= Array.length dict then
        corrupt "lineage dictionary index %d out of range" i
      else dict.(i)
    in
    let rec go () =
      need r 1;
      let tag = Bytes.get r.bytes r.pos in
      r.pos <- r.pos + 1;
      match tag with
      | '\000' -> Formula.false_
      | '\001' -> Formula.true_
      | '\002' ->
          let rel = tag_of (read_varint r) in
          let idx = read_varint r in
          let v =
            try Var.make rel idx
            with Invalid_argument msg -> corrupt "bad lineage var: %s" msg
          in
          Formula.var v
      | ('\004' | '\005') as c ->
          let n = read_varint r in
          if n < 2 then corrupt "connective with %d juncts" n;
          let rec read_n n acc =
            if n = 0 then List.rev acc else read_n (n - 1) (go () :: acc)
          in
          let juncts = read_n n [] in
          if Char.equal c '\004' then Formula.conj juncts
          else Formula.disj juncts
      | '\003' -> Formula.neg (go ())
      | c -> corrupt "unknown lineage bytecode %C" c
    in
    go ()

  let decode (r : Codec.reader) =
    let n = read_varint r in
    if n > Bytes.length r.bytes - r.pos then
      corrupt "block count %d exceeds payload" n;
    let ts = Array.make (max n 1) 0 in
    let prev = ref 0 in
    for i = 0 to n - 1 do
      let v = !prev + read_zigzag r in
      ts.(i) <- v;
      prev := v
    done;
    let te = Array.make (max n 1) 0 in
    for i = 0 to n - 1 do
      te.(i) <- ts.(i) + 1 + read_varint r
    done;
    let p = Array.make (max n 1) 0.0 in
    for i = 0 to n - 1 do
      let v = read_float r in
      if not (v >= 0.0 && v <= 1.0) then
        corrupt "probability %g out of range" v;
      p.(i) <- v
    done;
    let ntags = read_varint r in
    if ntags > Bytes.length r.bytes - r.pos then
      corrupt "lineage dictionary size %d exceeds payload" ntags;
    let dict = Array.make (max ntags 1) "" in
    for i = 0 to ntags - 1 do
      let len = read_varint r in
      need r len;
      dict.(i) <- Bytes.sub_string r.bytes r.pos len;
      r.pos <- r.pos + len
    done;
    let dict = Array.sub dict 0 ntags in
    let lineage = Array.make (max n 1) Formula.true_ in
    for i = 0 to n - 1 do
      lineage.(i) <- read_formula r dict
    done;
    let out = ref [] in
    for i = 0 to n - 1 do
      let arity = read_varint r in
      if arity > 0xFFFF then corrupt "fact arity %d out of range" arity;
      let values = List.init arity (fun _ -> read_value r) in
      let tp =
        try
          Tuple.make ~fact:(Fact.of_values values) ~lineage:lineage.(i)
            ~iv:(Interval.make ts.(i) te.(i)) ~p:p.(i)
        with Invalid_argument msg -> corrupt "bad tuple in block: %s" msg
      in
      out := tp :: !out
    done;
    Array.of_list (List.rev !out)
end

(* --- fixed blocks ----------------------------------------------------- *)

let v rel idx = Formula.var (Var.make rel idx)

let tuple ?(lineage = v "a" 1) ~ts ~te p values =
  Tuple.make ~fact:(Fact.of_values values) ~lineage ~iv:(Interval.make ts te) ~p

(* Every value kind, the int extremes in facts and interval starts (the
   zigzag deltas wrap), durations of one and of almost the whole range,
   p = 0 and 1, nested lineage over several relation tags whose first
   appearance order differs from their sorted order, and constants. *)
let kitchen_sink () =
  let nested =
    Formula.conj
      [
        v "s" 4;
        Formula.neg (Formula.disj [ v "r" 2; Formula.conj [ v "t" 0; v "r" 9 ] ]);
        Formula.disj [ v "s" 1; Formula.neg (v "u" 7) ];
      ]
  in
  [|
    tuple ~ts:0 ~te:1 0.0 [ Value.Null ];
    tuple ~lineage:nested ~ts:min_int ~te:(min_int + 1) 1.0
      [ Value.I min_int; Value.I max_int; Value.I 0; Value.I (-1) ];
    tuple ~lineage:(v "zeta" 123456789) ~ts:(max_int - 1) ~te:max_int 0.5
      [ Value.S ""; Value.S "zürich, \"quoted\"\n"; Value.F (-0.0) ];
    tuple ~lineage:Formula.true_ ~ts:(-7) ~te:(max_int / 2) 1e-300
      [ Value.F infinity; Value.F neg_infinity; Value.F 1e308; Value.F 0.1 ];
    tuple ~lineage:Formula.false_ ~ts:(-7) ~te:(-6) 0.999999999 [];
    tuple ~lineage:(Formula.neg (v "r" 0)) ~ts:3 ~te:9 0.25
      [ Value.S (String.make 300 'x'); Value.I 42 ];
  |]

(* Several blocks' worth of workload-shaped tuples: short ascending and
   descending runs of starts, a handful of tags, mostly bare variables. *)
let synthetic n =
  let tags = [| "wk"; "r"; "s"; "meteo" |] in
  Array.init n (fun i ->
      let ts = (i * 37 mod 1000) - 200 in
      let lineage =
        if i mod 7 = 0 then
          Formula.conj
            [ v tags.(i mod 4) i; Formula.neg (v tags.((i + 1) mod 4) (i / 2)) ]
        else v tags.(i * i mod 4) i
      in
      tuple ~lineage ~ts ~te:(ts + 1 + (i mod 13))
        (float_of_int (i mod 101) /. 100.0)
        [ Value.S (Printf.sprintf "file-%d" (i mod 17)); Value.I (i * 3) ])

let fixed_blocks () =
  [
    ("empty", [||]);
    ("fixtures a", Relation.to_array (Fixtures.relation_a ()));
    ("fixtures b", Relation.to_array (Fixtures.relation_b ()));
    ("kitchen sink", kitchen_sink ());
    ("synthetic 700", synthetic 700);
  ]

let encode tuples =
  let buf = Buffer.create 4096 in
  Codec.Column.encode buf tuples;
  Buffer.contents buf

(* MD5 of [Codec.Column.encode] over each fixed block, computed with the
   original encoder. *)
let golden =
  [
    ("empty", "c4103f122d27677c9db144cae1394a66");
    ("fixtures a", "320a9aec839965e78623ac83ef65b465");
    ("fixtures b", "24c982d0137d9f03c741c3f39fbdee5a");
    ("kitchen sink", "9ca93f520ef47d7fde4568994a06da8d");
    ("synthetic 700", "98535418b2c96bd969e52b3c966995c9");
  ]

let test_golden_bytes () =
  Alcotest.(check (list (pair string string)))
    "MD5 of each encoded block" golden
    (List.map
       (fun (name, tuples) ->
         (name, Digest.to_hex (Digest.string (encode tuples))))
       (fixed_blocks ()))

(* --- decoder against the frozen one ----------------------------------- *)

(* Tuple identity as the codec promises it: the same values (floats by
   their bits), the same interned lineage, the same interval and
   probability bits. *)
let same_tuple a b =
  Fact.arity (Tuple.fact a) = Fact.arity (Tuple.fact b)
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | Value.Null, Value.Null -> true
         | Value.S x, Value.S y -> String.equal x y
         | Value.I x, Value.I y -> Int.equal x y
         | Value.F x, Value.F y ->
             Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
         | (Value.Null | Value.S _ | Value.I _ | Value.F _), _ -> false)
       (Tuple.fact a) (Tuple.fact b)
  && Tuple.lineage a == Tuple.lineage b
  && Interval.equal (Tuple.iv a) (Tuple.iv b)
  && Int64.equal
       (Int64.bits_of_float (Tuple.p a))
       (Int64.bits_of_float (Tuple.p b))

type outcome = Decoded of Tuple.t array * int | Corrupt | Other of string

let run decode bytes =
  let r = Codec.reader bytes in
  match decode r with
  | tuples -> Decoded (tuples, r.Codec.pos)
  | exception Codec.Corrupt _ -> Corrupt
  | exception e -> Other (Printexc.to_string e)

let agrees bytes =
  match (run Old.decode bytes, run Codec.Column.decode bytes) with
  | Decoded (old, old_pos), Decoded (now, pos) ->
      old_pos = pos
      && Array.length old = Array.length now
      && Array.for_all2 same_tuple old now
  | (Corrupt | Other _), Corrupt -> true
  | _, Other e -> QCheck2.Test.fail_reportf "decoder raised %s" e
  | Decoded _, Corrupt -> QCheck2.Test.fail_report "rejected a block the old decoder read"
  | (Corrupt | Other _), Decoded _ ->
      QCheck2.Test.fail_report "read a block the old decoder rejected"

let block_gen =
  let open QCheck2.Gen in
  let var_f =
    let* rel = oneofl [ "a"; "b"; "wk"; "zz" ] in
    let* idx = oneof [ int_range 0 5; int_bound 1_000_000 ] in
    return (v rel idx)
  in
  let lineage_gen =
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           if depth = 0 then
             frequency
               [ (8, var_f); (1, return Formula.true_); (1, return Formula.false_) ]
           else
             frequency
               [
                 (4, var_f);
                 (1, map Formula.neg (self (depth - 1)));
                 (1, map Formula.conj (list_size (int_range 2 3) (self (depth - 1))));
                 (1, map Formula.disj (list_size (int_range 2 3) (self (depth - 1))));
               ])
  in
  let value_gen =
    oneof
      [
        return Value.Null;
        map (fun i -> Value.I i)
          (oneof [ small_signed_int; oneofl [ min_int; max_int; 0; -1 ]; int ]);
        map (fun f -> Value.F f) float;
        map (fun s -> Value.S s) (string_size (int_range 0 8));
      ]
  in
  let tuple_gen =
    let* ts =
      frequency
        [ (6, int_range (-50) 50); (1, oneofl [ min_int; max_int - 5; 0 ]) ]
    in
    let* duration =
      frequency [ (3, return 1); (2, int_range 2 20); (1, return max_int) ]
    in
    let te = if ts > max_int - duration then max_int else ts + duration in
    let te = if te <= ts then ts + 1 else te in
    let* p =
      frequency
        [ (1, return 0.0); (1, return 1.0); (3, float_bound_inclusive 1.0) ]
    in
    let* lineage = lineage_gen in
    let* values = list_size (int_range 0 4) value_gen in
    return (tuple ~lineage ~ts ~te p values)
  in
  map Array.of_list (list_size (int_range 0 60) tuple_gen)

let prop_decode_matches_old =
  QCheck2.Test.make ~name:"column decode matches the original decoder"
    ~count:500
    ~print:(fun tuples ->
      String.concat "\n" (Array.to_list (Array.map Tuple.to_string tuples)))
    block_gen
    (fun tuples -> agrees (Bytes.of_string (encode tuples)))

(* Malformed blocks: a valid encoding truncated, with bytes overwritten
   or inserted, or plain noise. *)
let prop_malformed_matches_old =
  let open QCheck2.Gen in
  let mutated =
    let* tuples = block_gen in
    let bytes = Bytes.of_string (encode tuples) in
    let len = Bytes.length bytes in
    let* cut = int_bound len in
    let* pos = int_bound (max 0 (len - 1)) in
    let* byte = oneof [ int_bound 255; oneofl [ 0x00; 0x7F; 0x80; 0xFF ] ] in
    let* run = int_range 1 10 in
    oneofl
      [
        Bytes.sub bytes 0 cut;
        (let b = Bytes.copy bytes in
         for i = pos to min (len - 1) (pos + run - 1) do
           Bytes.set b i (Char.chr byte)
         done;
         b);
        Bytes.cat (Bytes.sub bytes 0 pos)
          (Bytes.cat (Bytes.make run (Char.chr byte))
             (Bytes.sub bytes pos (len - pos)));
      ]
  in
  let noise = map Bytes.of_string (string_size (int_range 0 64)) in
  QCheck2.Test.make ~name:"column decode rejects what the original rejected"
    ~count:2000
    ~print:(fun b ->
      Printf.sprintf "%d bytes: %S" (Bytes.length b)
        (Bytes.sub_string b 0 (min 96 (Bytes.length b))))
    (frequency [ (4, mutated); (1, noise) ])
    agrees

(* Lengths and counts whose varint carries the sign bit, or that sit
   next to [max_int]: the original decoder let some of them through its
   checks and failed inside [Array] or [Bytes]. Random damage rarely
   builds a nine-byte varint, so these are spelled out. *)
let test_sign_bit_lengths () =
  let minus_one = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  let half = "\x00\x00\x00\x00\x00\x00\xe0\x3f" (* 0.5 *) in
  let max_int_le = "\xff\xff\xff\xff\xff\xff\xff\x3f" in
  let one_tuple ~fact = "\x01\x00\x00" ^ half ^ "\x00\x01" ^ fact in
  List.iter
    (fun (name, block) ->
      match Codec.Column.decode (Codec.reader (Bytes.of_string block)) with
      | exception Codec.Corrupt _ -> ()
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: decoded" name)
    [
      ("dictionary size -1", "\x00" ^ minus_one);
      ("tag length -1", "\x00\x01" ^ minus_one);
      ("fact arity -1", one_tuple ~fact:minus_one);
      ("string length max_int", one_tuple ~fact:("\x01\x01" ^ max_int_le ^ "x"));
    ]

let suite =
  [
    Alcotest.test_case "column codec bytes pinned" `Quick test_golden_bytes;
    Alcotest.test_case "column decode rejects sign-bit lengths" `Quick
      test_sign_bit_lengths;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_decode_matches_old;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_malformed_matches_old;
  ]
