type env = Var.t -> float

exception Unbound_variable of Var.t

exception Vanishing_evidence of { p_given : float; epsilon : float }

let evidence_epsilon = 1e-12

let () =
  Printexc.register_printer (function
    | Unbound_variable v ->
        Some
          (Printf.sprintf
             "Prob.Unbound_variable: lineage variable %s has no marginal \
              probability in the environment"
             (Var.to_string v))
    | Vanishing_evidence { p_given; epsilon } ->
        Some
          (Printf.sprintf
             "Prob.Vanishing_evidence: evidence probability %g is below \
              epsilon %g — conditioning would divide by (near) zero"
             p_given epsilon)
    | _ -> None)

let env_of_alist alist =
  let table = Hashtbl.create (List.length alist) in
  List.iter (fun (v, p) -> Hashtbl.replace table v p) alist;
  fun v ->
    match Hashtbl.find_opt table v with
    | Some p -> p
    | None -> raise (Unbound_variable v)

let exact env f =
  let m = Bdd.manager ~order:(Formula.vars f) () in
  Bdd.probability m env (Bdd.of_formula m f)

exception Repeated_variable

let read_once env f =
  Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Prob_readonce_checks;
  (* One shared seen-set suffices: a formula is read-once iff no variable
     occurs twice anywhere, and sub-formula independence then follows. *)
  let seen = Hashtbl.create 16 in
  let rec go f =
    match Formula.view f with
    | True -> 1.0
    | False -> 0.0
    | Var v ->
        if Hashtbl.mem seen v then raise Repeated_variable;
        Hashtbl.add seen v ();
        env v
    | Not g -> 1.0 -. go g
    | And gs -> List.fold_left (fun acc g -> acc *. go g) 1.0 gs
    | Or gs ->
        1.0 -. List.fold_left (fun acc g -> acc *. (1.0 -. go g)) 1.0 gs
  in
  match go f with p -> Some p | exception Repeated_variable -> None

let conditional env ~given f =
  let order =
    List.sort_uniq Var.compare (Formula.vars f @ Formula.vars given)
  in
  let m = Bdd.manager ~order () in
  let given_bdd = Bdd.of_formula m given in
  let p_given = Bdd.probability m env given_bdd in
  (* Dividing by a denormal-small [p_given] silently amplifies WMC
     rounding error into garbage quotients; refuse anything below
     [evidence_epsilon] (which also covers the exact-zero case). *)
  if p_given < evidence_epsilon then
    raise (Vanishing_evidence { p_given; epsilon = evidence_epsilon });
  let joint = Bdd.conj m (Bdd.of_formula m f) given_bdd in
  Bdd.probability m env joint /. p_given

let compute env f =
  Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Prob_evals;
  match read_once env f with
  | Some p -> p
  | None ->
      Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Prob_bdd_fallbacks;
      exact env f

(* The static safe-plan fast path: factorized evaluation with no
   repeated-variable check and no BDD fallback. Sound exactly when the
   caller has proven the formula read-once — the planner's safe-plan
   classification tags TP join nodes whose every output lineage is
   (joins over duplicate-free base inputs appearing on one side only).
   Under the sanitizer, [Nj] cross-checks the output probabilities
   against [compute], so a misclassification surfaces as an
   {!Tpdb_windows.Invariant.Violation} rather than silent garbage. *)
let factorize env f =
  Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Prob_evals;
  Tpdb_obs.Metrics.incr Tpdb_obs.Metrics.Analysis_static_prob_evals;
  let rec go f =
    match Formula.view f with
    | True -> 1.0
    | False -> 0.0
    | Var v -> env v
    | Not g -> 1.0 -. go g
    | And gs -> List.fold_left (fun acc g -> acc *. go g) 1.0 gs
    | Or gs ->
        1.0 -. List.fold_left (fun acc g -> acc *. (1.0 -. go g)) 1.0 gs
  in
  go f

(* Memoized [compute] keyed on formula ids: hash-consing makes the id a
   sound proxy for the formula. Entries are valid for one environment;
   the cache detects a new one by physical identity of the closure and
   starts a fresh generation. A hit returns the float an earlier
   [compute] returned, so memoization never changes a value. *)
module Cache = struct
  type stats = { hits : int; misses : int; resets : int; entries : int }

  type t = {
    mutable env : env option;  (* generation tag, compared physically *)
    results : (int, float) Hashtbl.t;  (* formula id -> probability *)
    mutable hits : int;
    mutable misses : int;
    mutable resets : int;
  }

  let create () =
    { env = None; results = Hashtbl.create 1024; hits = 0; misses = 0; resets = 0 }

  let key = Domain.DLS.new_key create
  let domain () = Domain.DLS.get key

  let compute t env f =
    (match t.env with
    | Some e when e == env -> ()
    | Some _ | None ->
        t.env <- Some env;
        Hashtbl.reset t.results;
        t.resets <- t.resets + 1);
    match Hashtbl.find_opt t.results (Formula.id f) with
    | Some p ->
        t.hits <- t.hits + 1;
        p
    | None ->
        t.misses <- t.misses + 1;
        let p = compute env f in
        Hashtbl.add t.results (Formula.id f) p;
        p

  let stats t =
    {
      hits = t.hits;
      misses = t.misses;
      resets = t.resets;
      entries = Hashtbl.length t.results;
    }
end

(* Local SplitMix64 (same construction as Tpdb_workload.Rng, duplicated
   here because workload depends on this library). *)
let monte_carlo ?(seed = 1) ~samples env f =
  if samples <= 0 then invalid_arg "Prob.monte_carlo: samples must be positive";
  let state = ref (Int64.of_int seed) in
  let next () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
  in
  let vars = Array.of_list (Formula.vars f) in
  let marginals = Array.map env vars in
  let assignment = Hashtbl.create (Array.length vars) in
  let successes = ref 0 in
  for _ = 1 to samples do
    Array.iteri
      (fun i v -> Hashtbl.replace assignment v (next () < marginals.(i)))
      vars;
    if Formula.eval (Hashtbl.find assignment) f then incr successes
  done;
  float_of_int !successes /. float_of_int samples

let enumerate env f =
  let vars = Array.of_list (Formula.vars f) in
  let n = Array.length vars in
  if n > 20 then invalid_arg "Prob.enumerate: too many variables";
  let total = ref 0.0 in
  for mask = 0 to (1 lsl n) - 1 do
    let assignment v =
      let rec index i = if Var.equal vars.(i) v then i else index (i + 1) in
      mask land (1 lsl index 0) <> 0
    in
    if Formula.eval assignment f then begin
      let weight = ref 1.0 in
      for i = 0 to n - 1 do
        let p = env vars.(i) in
        weight := !weight *. (if mask land (1 lsl i) <> 0 then p else 1.0 -. p)
      done;
      total := !total +. !weight
    end
  done;
  !total
