(* Differential fuzzer: generates TP relation pairs well beyond unit-test
   sizes and cross-checks, per round,

   - NJ window sets against the TA baseline's (same windows, different
     algorithm family);
   - the TP left outer join against snapshot semantics at sampled time
     points (fact + normalized lineage multisets).

   Any discrepancy prints the offending seed and exits non-zero.

     dune exec bin/tpdb_fuzz.exe -- --rounds 50 --size 400 *)

open Cmdliner
open Tpdb

let window_key w =
  ( Window.kind w,
    Fact.to_string (Window.fr w),
    (match Window.fs w with Some f -> Fact.to_string f | None -> "-"),
    Interval.to_string (Window.iv w),
    Formula.to_string_ascii (Formula.normalize (Window.lr w)),
    match Window.ls w with
    | Some l -> Formula.to_string_ascii (Formula.normalize l)
    | None -> "-" )

let windows_of stream = List.sort_uniq compare (List.map window_key stream)

let fail_round ~seed ~round what =
  Printf.eprintf "FUZZ FAILURE (seed %d, round %d): %s\n" seed round what;
  exit 1

(* Snapshot of the left outer join at time point [t], straight from the
   semantics of the paper's §I. *)
let snapshot_rows ~theta r s t =
  let valid rel = List.filter (fun tp -> Tuple.valid_at tp t) (Relation.tuples rel) in
  let s_valid = valid s in
  List.concat_map
    (fun r_tuple ->
      let matches =
        List.filter
          (fun s_tuple ->
            Theta.matches theta (Tuple.fact r_tuple) (Tuple.fact s_tuple))
          s_valid
      in
      let negation =
        match matches with
        | [] -> Tuple.lineage r_tuple
        | _ ->
            Formula.and_not (Tuple.lineage r_tuple)
              (Formula.disj (List.map Tuple.lineage matches))
      in
      ( Fact.to_string (Tuple.fact r_tuple),
        "-",
        Formula.to_string_ascii (Formula.normalize negation) )
      :: List.map
           (fun s_tuple ->
             ( Fact.to_string (Tuple.fact r_tuple),
               Fact.to_string (Tuple.fact s_tuple),
               Formula.to_string_ascii
                 (Formula.normalize
                    (Formula.( &&& ) (Tuple.lineage r_tuple)
                       (Tuple.lineage s_tuple))) ))
           matches)
    (valid r)
  |> List.sort_uniq compare

let output_rows_at output ~r_arity t =
  Relation.tuples output
  |> List.filter (fun tp -> Tuple.valid_at tp t)
  |> List.map (fun tp ->
         let fact = Tuple.fact tp in
         let left =
           Fact.to_string (Fact.project (List.init r_arity Fun.id) fact)
         in
         let right_cols =
           List.init (Fact.arity fact - r_arity) (fun i -> i + r_arity)
         in
         let right = Fact.project right_cols fact in
         let right_str =
           if Array.for_all Value.is_null right then "-"
           else Fact.to_string right
         in
         ( left,
           right_str,
           Formula.to_string_ascii (Formula.normalize (Tuple.lineage tp)) ))
  |> List.sort_uniq compare

let run_round ~seed ~round ~size =
  let round_seed = seed + (round * 7919) in
  let rng = Rng.create round_seed in
  let keys = 1 + Rng.int rng 30 in
  let horizon = 50 + Rng.int rng 400 in
  let mean_duration = 2 + Rng.int rng 25 in
  let r =
    Datasets.Uniform.relation ~name:"r" ~seed:round_seed ~keys ~horizon
      ~mean_duration size
  in
  let s =
    Datasets.Uniform.relation ~name:"s" ~seed:(round_seed + 1) ~keys ~horizon
      ~mean_duration size
  in
  let theta = Theta.eq 0 0 in
  (* 1. NJ vs TA window sets. *)
  let nj = windows_of (List.of_seq (Nj.windows_wuon ~theta r s)) in
  let ta = windows_of (Ta.windows_wuon ~algorithm:`Hash ~theta r s) in
  if nj <> ta then fail_round ~seed ~round "NJ and TA window sets differ";
  (* 2. Snapshot semantics at sampled time points. *)
  let output = Nj.join ~kind:Nj.Left ~theta r s in
  let r_arity = Schema.arity (Relation.schema r) in
  for _ = 1 to 25 do
    let t = Rng.int rng horizon in
    let expected = snapshot_rows ~theta r s t in
    let actual = output_rows_at output ~r_arity t in
    if expected <> actual then
      fail_round ~seed ~round
        (Printf.sprintf "snapshot mismatch at t=%d: %d expected vs %d actual rows"
           t (List.length expected) (List.length actual))
  done;
  List.length nj

let fuzz rounds size seed =
  let total = ref 0 in
  for round = 1 to rounds do
    total := !total + run_round ~seed ~round ~size;
    if round mod 10 = 0 then
      Printf.printf "round %d/%d ok (%d windows checked so far)\n%!" round
        rounds !total
  done;
  Printf.printf "fuzz: %d rounds x %d tuples per side, %d windows checked, no discrepancies\n"
    rounds size !total

let () =
  let rounds =
    Arg.(value & opt int 30 & info [ "rounds" ] ~docv:"N" ~doc:"Fuzzing rounds.")
  and size =
    Arg.(value & opt int 300 & info [ "size" ] ~docv:"N"
           ~doc:"Tuples per relation per round.")
  and seed =
    Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "tpdb_fuzz" ~doc:"Differential fuzzer for the TP join operators.")
      Term.(const fuzz $ rounds $ size $ seed)
  in
  exit (Cmd.eval cmd)
