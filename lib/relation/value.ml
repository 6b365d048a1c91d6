type t =
  | Null
  | S of string
  | I of int
  | F of float

exception Type_error of { context : string; left : t; right : t }

let as_float = function
  | I i -> Some (float_of_int i)
  | F f -> Some f
  | Null | S _ -> None

let equal a b =
  match (a, b) with
  | Null, Null -> true
  | S x, S y -> String.equal x y
  | I x, I y -> x = y
  | F x, F y -> Float.equal x y
  | (I _ | F _), (I _ | F _) -> (
      match (as_float a, as_float b) with
      | Some x, Some y -> Float.equal x y
      | _ -> false)
  | (Null | S _ | I _ | F _), _ -> false

let compare a b =
  let rank = function Null -> 0 | I _ | F _ -> 1 | S _ -> 2 in
  match (a, b) with
  | Null, Null -> 0
  | S x, S y -> String.compare x y
  | (I _ | F _), (I _ | F _) -> (
      match (as_float a, as_float b) with
      | Some x, Some y -> Float.compare x y
      | _ -> raise (Type_error { context = "Value.compare"; left = a; right = b }))
  | _ -> Int.compare (rank a) (rank b)

let hash = function
  | Null -> 17
  | S s -> Hashtbl.hash s
  | I i -> Hashtbl.hash (float_of_int i)
  | F f -> Hashtbl.hash f

let is_null = function Null -> true | S _ | I _ | F _ -> false

let add_to_buffer buf = function
  | Null -> Buffer.add_char buf '-'
  | S s -> Buffer.add_string buf s
  | I i -> Tpdb_text.Numbers.add_int buf i
  | F f -> Tpdb_text.Numbers.add_g buf f

let to_string = function
  | Null -> "-"
  | S s -> s
  | (I _ | F _) as v ->
      let buf = Buffer.create 24 in
      add_to_buffer buf v;
      Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let () =
  Printexc.register_printer (function
    | Type_error { context; left; right } ->
        Some
          (Printf.sprintf "%s: values '%s' and '%s' are not comparable" context
             (to_string left) (to_string right))
    | _ -> None)

let of_string_guess s =
  match s with
  | "" | "-" -> Null
  | _ -> (
      match int_of_string_opt s with
      | Some i -> I i
      | None -> (
          match float_of_string_opt s with
          | Some f -> F f
          | None -> S s))
