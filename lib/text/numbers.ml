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

(* Every power of ten up to 10^22 is a double, so [v *. pow10.(k)] and
   [v /. pow10.(k)] round the exact product or quotient once. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13;
     1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let ipow10 =
  [| 1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
     1_000_000_000; 10_000_000_000; 100_000_000_000; 1_000_000_000_000 |]

(* [v *. 10^k] for |k| <= 22, nan beyond. *)
let[@inline] scaled v k =
  if k >= 0 then if k <= 22 then v *. pow10.(k) else nan
  else if k >= -22 then v /. pow10.(-k)
  else nan

(* Digit [i] (0 = most significant) of the [p]-digit [d]. *)
let add_digit buf ~p d i =
  Buffer.add_char buf (Char.unsafe_chr (48 + (d / ipow10.(p - 1 - i) mod 10)))

let add_digits buf ~p d lo hi =
  for i = lo to hi - 1 do
    add_digit buf ~p d i
  done

(* How many leading digits of the [p]-digit [d] %g keeps: trailing
   zeros go, the first digit stays. *)
let rec kept ~p d n = if n > 1 && d / ipow10.(p - n) mod 10 = 0 then kept ~p d (n - 1) else n

(* [Printf "%.<p>g"] (1 <= p <= 12) of [v], allocating nothing on the
   fast path: a positive finite [v] whose [p] significant digits [d] are
   [v] scaled by an exact power of ten and rounded to an integer. The one
   rounding of the scaling moves [y] by at most half an ulp of a number
   below 10^12, under 1.3e-4, so unless the fraction of [y] lies within
   1e-3 of ½ it rounds as the exact value does, and the digits are
   [printf]'s. Everything else — ties and near-ties, zero, negatives,
   non-finite and far-out exponents — goes to [caml_format_float]. *)
let add_general fmt p buf v =
  let lo = float_of_int ipow10.(p - 1) and hi = float_of_int ipow10.(p) in
  let e = ref 0 and y = ref nan in
  if v > 0.0 && v < infinity then begin
    e := int_of_float (Float.floor (Float.log10 v));
    y := scaled v (p - 1 - !e);
    (* log10 may be off by one next to a power of ten *)
    if !y < lo then begin
      decr e;
      y := scaled v (p - 1 - !e)
    end
    else if !y >= hi then begin
      incr e;
      y := scaled v (p - 1 - !e)
    end
  end;
  let y = !y in
  if not (y >= lo && y < hi && Float.abs (y -. Float.floor y -. 0.5) >= 1e-3) then
    Buffer.add_string buf (format_float fmt v)
  else begin
    let d = int_of_float (Float.round y) in
    (* rounding up to 10^p carries into the exponent *)
    let carry = d = ipow10.(p) in
    let e = if carry then !e + 1 else !e and d = if carry then ipow10.(p - 1) else d in
    let kept = kept ~p d p in
    if e >= -4 && e < p then begin
      if e >= 0 then begin
        add_digits buf ~p d 0 (e + 1);
        if kept > e + 1 then begin
          Buffer.add_char buf '.';
          add_digits buf ~p d (e + 1) kept
        end
      end
      else begin
        Buffer.add_string buf "0.";
        for _ = 1 to -e - 1 do
          Buffer.add_char buf '0'
        done;
        add_digits buf ~p d 0 kept
      end
    end
    else begin
      add_digit buf ~p d 0;
      if kept > 1 then begin
        Buffer.add_char buf '.';
        add_digits buf ~p d 1 kept
      end;
      Buffer.add_string buf (if e < 0 then "e-" else "e+");
      if abs e < 10 then Buffer.add_char buf '0';
      add_int buf (abs e)
    end
  end

let add_g buf f = add_general "%g" 6 buf f
let add_g4 buf f = add_general "%.4g" 4 buf f
let add_g12 buf f = add_general "%.12g" 12 buf f
