type t = { rel : string; idx : int }

let is_digit c = c >= '0' && c <= '9'

let make rel idx =
  if String.length rel = 0 then invalid_arg "Var.make: empty relation tag";
  if is_digit rel.[String.length rel - 1] then
    invalid_arg "Var.make: relation tag must not end in a digit";
  if idx < 0 then invalid_arg "Var.make: negative index";
  { rel; idx }

let rel v = v.rel
let idx v = v.idx

let equal a b = a.idx = b.idx && String.equal a.rel b.rel

let compare a b =
  let c = String.compare a.rel b.rel in
  if c <> 0 then c else Int.compare a.idx b.idx

(* The record has the pair [(rel, idx)]'s tag and size, so it hashes
   exactly as the pair does, without building one per call. *)
let hash (v : t) = Hashtbl.hash v

let add_to_buffer buf v =
  Buffer.add_string buf v.rel;
  Tpdb_text.Numbers.add_int buf v.idx

let to_string v =
  let buf = Buffer.create (String.length v.rel + 4) in
  add_to_buffer buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_string s =
  let n = String.length s in
  let rec split i = if i > 0 && is_digit s.[i - 1] then split (i - 1) else i in
  let cut = split n in
  if cut = n || cut = 0 then
    invalid_arg (Printf.sprintf "Var.of_string: %S" s)
  else make (String.sub s 0 cut) (int_of_string (String.sub s cut (n - cut)))
