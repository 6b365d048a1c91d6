external format_float : string -> float -> string = "caml_format_float"

(* Digits of [n <= 0], most significant first. Working on the negative
   side keeps [min_int] in range: its negation overflows. *)
let rec add_nonpositive buf n =
  if n <= -10 then add_nonpositive buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_nonpositive buf n
  end
  else add_nonpositive buf (-n)

let add_g buf f = Buffer.add_string buf (format_float "%g" f)
let add_g4 buf f = Buffer.add_string buf (format_float "%.4g" f)
let add_g12 buf f = Buffer.add_string buf (format_float "%.12g" f)
