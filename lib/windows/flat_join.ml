(* The flat struct-of-arrays window pipeline: WO + WU + WN of each group
   derived in one event sweep over endpoint arrays (Tpdb_engine.Flat),
   every window handed to the pass's consumer in stream order as soon as
   it is built. Every stage's output is the paper's Table I window set
   (qcheck properties check it against Spec); the inner loop is index
   arithmetic over unboxed int arrays. *)

module Interval = Tpdb_interval.Interval
module Formula = Tpdb_lineage.Formula
module Prob = Tpdb_lineage.Prob
module Relation = Tpdb_relation.Relation
module Tuple = Tpdb_relation.Tuple
module Fact = Tpdb_relation.Fact
module Value = Tpdb_relation.Value
module Flat = Tpdb_engine.Flat
module Buf = Tpdb_engine.Flat.Buf
module Vec = Tpdb_engine.Flat.Vec
module Hash_partition = Tpdb_engine.Hash_partition
module Metrics = Tpdb_obs.Metrics

type stage = [ `Wo | `Wuo | `Wuon | `Wun ]

(* --- per-domain reusable scratch buffers ----------------------------- *)

type scratch = {
  m_ts : Buf.t;  (* match intersection starts, collection order *)
  m_te : Buf.t;  (* match intersection ends *)
  m_j : Buf.t;  (* bucket position of the matched s tuple *)
  ord : Buf.t;  (* sort permutation over the matches *)
  w_ts : Buf.t;  (* matches in window order (iv, then tuple) *)
  w_te : Buf.t;
  w_j : Buf.t;
  ends : Buf.t;  (* window ends, ascending: the event sweep's end cursor *)
  live : Buf.t;  (* windows covering the sweep position, arrival order *)
}

(* Each domain of the pool gets its own buffers, so parallel partition
   sweeps never contend and never allocate per probe. *)
let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        m_ts = Buf.create ();
        m_te = Buf.create ();
        m_j = Buf.create ();
        ord = Buf.create ();
        w_ts = Buf.create ();
        w_te = Buf.create ();
        w_j = Buf.create ();
        ends = Buf.create ();
        live = Buf.create ();
      })

let scratch () = Domain.DLS.get scratch_key

(* --- probabilities --------------------------------------------------- *)

(* [Prob.factorize env λ], or [nan] when the sweep cannot take a window's
   probability from it: no [env] (the plan is not statically safe), a
   partner lineage that is not a bare variable, or a variable [env] does
   not bind (formation's own probability function then raises if an
   output lineage needs it). *)
let price env ~partner lineage =
  let bare =
    match Formula.view lineage with Formula.Var _ -> true | _ -> false
  in
  match env with
  | Some env when bare || not partner -> (
      try Prob.factorize env lineage with Prob.Unbound_variable _ -> Float.nan)
  | Some _ | None -> Float.nan

(* --- the build side --------------------------------------------------- *)

type bucket = {
  b_tuples : Tuple.t array;  (* sorted by (interval, original position) *)
  b_p : float array;  (* [price ~partner:true] of each tuple's lineage *)
  b_flat : Flat.t;  (* their endpoints, start-sorted *)
}

type ctx = {
  lookup : Tuple.t -> bucket option;
  temporal : Flat.temporal;
  matches_residual : Fact.t -> Fact.t -> bool;
  residual_trivial : bool;  (* no fact atoms beyond the equi key *)
  order : Tuple.t -> Tuple.t -> int;
      (* partners of equal intersection intervals, in window order *)
  env : Prob.env option;
}

let bucket_of_entries ~env entries =
  let arr = Vec.of_list entries in
  Array.sort
    (fun (i, a) (j, b) ->
      let c = Interval.compare (Tuple.iv a) (Tuple.iv b) in
      if c <> 0 then c else Int.compare i j)
    arr;
  let b_tuples = Array.make (Array.length arr) Tuple.placeholder in
  Array.iteri (fun k (_, tp) -> b_tuples.(k) <- tp) arr;
  {
    b_tuples;
    b_p =
      Array.map (fun tp -> price env ~partner:true (Tuple.lineage tp)) b_tuples;
    b_flat = Flat.of_sorted (fun (_, tp) -> Tuple.iv tp) arr;
  }

module Value_table = Hashtbl.Make (struct
  type t = Value.t

  let hash = Value.hash
  let equal = Value.equal
end)

(* Single-column equi keys probe a [Value.t]-keyed table directly: no
   per-probe key-fact allocation, no multi-column hash loop. Under [`Eq]
   null-keyed build tuples are left out of the table — a null never
   equals anything, so they could not match; under [`Not_distinct]
   ([null_safe]) nulls are one key like any other. *)
let single_key_lookup ~env ~null_safe ~lcol ~rcol s =
  (* never more keys than build tuples: a small side (one partition of
     a parallel join, say) gets a small table, not 1024 buckets straight
     into the major heap *)
  let by_key = Value_table.create (min 1024 (Relation.cardinality s)) in
  List.iteri
    (fun i tp ->
      let v = Fact.get (Tuple.fact tp) rcol in
      if null_safe || not (Value.is_null v) then
        match Value_table.find_opt by_key v with
        | Some entries -> entries := (i, tp) :: !entries
        | None -> Value_table.add by_key v (ref [ (i, tp) ]))
    (Relation.tuples s);
  let buckets = Value_table.create (Value_table.length by_key) in
  Value_table.iter
    (fun v entries ->
      Value_table.add buckets v (bucket_of_entries ~env (List.rev !entries)))
    by_key;
  fun r_tuple ->
    let v = Fact.get (Tuple.fact r_tuple) lcol in
    if (not null_safe) && Value.is_null v then None
    else Value_table.find_opt buckets v

let build ?env ?(order = Tuple.compare_fact_start) ~theta s =
  let indexed () = List.mapi (fun i tp -> (i, tp)) (Relation.tuples s) in
  let lookup, residual =
    match (Theta.equi_keys theta, Theta.null_safe_keys theta) with
    | Some ([ lcol ], [ rcol ]), [ null_safe ] ->
        (single_key_lookup ~env ~null_safe ~lcol ~rcol s, Theta.residual theta)
    | Some (left_cols, right_cols), null_safe ->
        (* the key positions where a null matches nothing *)
        let strict = Array.of_list (List.map not null_safe) in
        let partition =
          Hash_partition.build
            ~key:(fun (_, tp) -> Fact.key right_cols (Tuple.fact tp))
            ~hash:Fact.hash ~equal:Fact.equal (indexed ())
        in
        let buckets =
          Hash_partition.build
            ~key:(fun (key, _) -> key)
            ~hash:Fact.hash ~equal:Fact.equal
            (List.map
               (fun (key, entries) -> (key, bucket_of_entries ~env entries))
               (Hash_partition.buckets partition))
        in
        ( (fun r_tuple ->
            let key = Fact.key left_cols (Tuple.fact r_tuple) in
            if Array.exists2 (fun strict v -> strict && Value.is_null v) strict key
            then None
            else
              match Hash_partition.probe buckets key with
              | [] -> None
              | (_, bucket) :: _ -> Some bucket),
          Theta.residual theta )
    | None, _ ->
        let bucket = bucket_of_entries ~env (indexed ()) in
        ( (fun _ ->
            if Array.length bucket.b_tuples = 0 then None else Some bucket),
          theta )
  in
  {
    lookup;
    temporal = (Theta.temporal theta :> Flat.temporal);
    matches_residual = Theta.matches residual;
    residual_trivial = Theta.atoms residual = [];
    order;
    env;
  }

(* --- the probe-side group kernel -------------------------------------- *)

(* What a pass builds. [count_wo]/[build_wo] are split so that the anti
   join counts overlapping windows it never builds, and the right pass
   of an outer join builds them (for the sanitizer only) without
   counting them a second time. *)
type emit = { count_wo : bool; build_wo : bool; gaps : bool; negs : bool }

let some_p p = if Float.is_nan p then None else Some p

(* One r tuple: collect its matches into the scratch arrays, order them,
   and hand the group's windows to [out] as they are built — or, for a
   tuple without matches, its spanning unmatched window to [spanning]. *)
let group ctx scr emit ~out ~spanning r_tuple =
  let fr = Tuple.fact r_tuple
  and lr = Tuple.lineage r_tuple
  and rspan = Tuple.iv r_tuple in
  let rts = Interval.ts rspan and rte = Interval.te rspan in
  let priced = Option.is_some ctx.env in
  let pr = price ctx.env ~partner:false lr in
  let unmatched ~iv sink =
    Metrics.incr Metrics.Windows_unmatched;
    sink (Window.unmatched ?p:(some_p pr) ~fr ~iv ~lr ~rspan ())
  in
  match ctx.lookup r_tuple with
  | None -> unmatched ~iv:rspan spanning
  | Some b ->
      Buf.clear scr.m_ts;
      Buf.clear scr.m_te;
      Buf.clear scr.m_j;
      let lo, hi = Flat.window_range b.b_flat ctx.temporal ~rts ~rte in
      for j = lo to hi - 1 do
        let tev = Flat.te b.b_flat j in
        if
          Flat.end_matches ctx.temporal ~rts ~rte tev
          && ctx.matches_residual fr (Tuple.fact b.b_tuples.(j))
        then begin
          Buf.push scr.m_ts (max rts (Flat.ts b.b_flat j));
          Buf.push scr.m_te (min rte tev);
          Buf.push scr.m_j j
        end
      done;
      let k = Buf.length scr.m_ts in
      if k = 0 then unmatched ~iv:rspan spanning
      else begin
        (* Window order within the group: intersection interval, then the
           s tuple ([ctx.order]). *)
        Buf.clear scr.ord;
        for x = 0 to k - 1 do
          Buf.push scr.ord x
        done;
        Buf.sort scr.ord (fun x y ->
            let c = Int.compare (Buf.get scr.m_ts x) (Buf.get scr.m_ts y) in
            if c <> 0 then c
            else
              let c = Int.compare (Buf.get scr.m_te x) (Buf.get scr.m_te y) in
              if c <> 0 then c
              else
                ctx.order
                  b.b_tuples.(Buf.get scr.m_j x)
                  b.b_tuples.(Buf.get scr.m_j y));
        Buf.clear scr.w_ts;
        Buf.clear scr.w_te;
        Buf.clear scr.w_j;
        for x = 0 to k - 1 do
          let o = Buf.get scr.ord x in
          Buf.push scr.w_ts (Buf.get scr.m_ts o);
          Buf.push scr.w_te (Buf.get scr.m_te o);
          Buf.push scr.w_j (Buf.get scr.m_j o)
        done;
        let wts x = Buf.get scr.w_ts x and wte x = Buf.get scr.w_te x in
        let overlapping x =
          if emit.count_wo then Metrics.incr Metrics.Windows_overlapping;
          if emit.build_wo then begin
            let j = Buf.get scr.w_j x in
            let s_tuple = b.b_tuples.(j) in
            out
              (Window.overlapping
                 ?p:(some_p (pr *. b.b_p.(j)))
                 ~fr ~fs:(Tuple.fact s_tuple)
                 ~iv:(Interval.make (wts x) (wte x))
                 ~lr ~ls:(Tuple.lineage s_tuple) ~rspan
                 ~sspan:(Tuple.iv s_tuple) ())
          end
        in
        (* LAWAN: a maximal constant-coverage segment, λs = the live
           lineages in arrival order. p multiplies in the order
           [Prob.factorize] folds [λr ∧ ¬(λs1 ∨ … ∨ λsk)]: λr's conjuncts,
           then the negated disjunction, a bare [¬λs1] when k = 1. *)
        let negating a t =
          Metrics.incr Metrics.Sweep_segments;
          Metrics.incr Metrics.Windows_negating;
          let live = scr.live in
          let n = Buf.length live in
          let partner y = Buf.get scr.w_j (Buf.get live y) in
          let ls = ref [] in
          for y = n - 1 downto 0 do
            ls := Tuple.lineage b.b_tuples.(partner y) :: !ls
          done;
          let p_not =
            if not priced then Float.nan
            else if n = 1 then 1.0 -. b.b_p.(partner 0)
            else begin
              let q = ref 1.0 in
              for y = 0 to n - 1 do
                q := !q *. (1.0 -. b.b_p.(partner y))
              done;
              1.0 -. (1.0 -. !q)
            end
          in
          out
            (Window.negating
               ?p:(some_p (pr *. p_not))
               ~fr ~iv:(Interval.make a t) ~lr ~ls:(Formula.disj !ls) ~rspan ())
        in
        if not (emit.gaps || emit.negs) then
          for x = 0 to k - 1 do
            overlapping x
          done
        else begin
          (* One ascending event sweep over the window starts (already
             sorted: window order) and the sorted ends. At each event the
             segment since the previous one is a gap (LAWAU) when nothing
             covers it and a negating window (LAWAN) otherwise; windows
             starting at the event follow it. That is the paper's
             pipeline order: LAWAU's gaps in front of the window bounding
             them, LAWAN's segments merged in by start, overlapping
             windows first on ties. *)
          Buf.clear scr.ends;
          for x = 0 to k - 1 do
            Buf.push scr.ends (wte x)
          done;
          Buf.sort scr.ends Int.compare;
          Buf.clear scr.live;
          let i = ref 0 and j = ref 0 and pos = ref rts in
          while !j < k do
            let t =
              if !i < k && wts !i <= Buf.get scr.ends !j then wts !i
              else Buf.get scr.ends !j
            in
            if t > !pos then
              if Buf.length scr.live = 0 then begin
                if emit.gaps then unmatched ~iv:(Interval.make !pos t) out
              end
              else if emit.negs then negating !pos t;
            while !i < k && wts !i = t do
              overlapping !i;
              Buf.push scr.live !i;
              incr i
            done;
            if Buf.get scr.ends !j = t then begin
              while !j < k && Buf.get scr.ends !j = t do
                incr j
              done;
              let kept = ref 0 in
              for y = 0 to Buf.length scr.live - 1 do
                let x = Buf.get scr.live y in
                if wte x > t then begin
                  Buf.set scr.live !kept x;
                  incr kept
                end
              done;
              Buf.truncate scr.live !kept
            end;
            pos := t
          done;
          if emit.gaps && rte > !pos then
            unmatched ~iv:(Interval.make !pos rte) out
        end
      end

(* Counting kernel: derive every window boundary of the group on the
   int buffers alone — no [Window.t], no lineage, no match permutation.
   Counts are invariant to probe order and to the within-group window
   order, so the r side is not sorted and matches only need their starts
   and ends sorted independently: gaps (LAWAU) are the uncovered
   intervals of the union coverage, negating segments (LAWAN) the spans
   between consecutive event points with non-empty coverage, and one
   ascending event sweep over the two sorted endpoint buffers yields
   both. *)
let count_group ctx scr ~stage r_tuple =
  let fr = Tuple.fact r_tuple in
  let rspan = Tuple.iv r_tuple in
  let rts = Interval.ts rspan and rte = Interval.te rspan in
  match ctx.lookup r_tuple with
  | None -> 1 (* spanning unmatched *)
  | Some b ->
      Buf.clear scr.m_ts;
      Buf.clear scr.m_te;
      let lo, hi = Flat.window_range b.b_flat ctx.temporal ~rts ~rte in
      (* The one loop the whole bench leans on: for the common case —
         [`Overlap] with a pure equi θ — dispatch and the residual
         closure are hoisted out and the endpoint arrays are walked
         raw ([lo, hi) is in bounds by construction). *)
      (if ctx.residual_trivial && ctx.temporal = `Overlap then begin
         let ts_a = Flat.starts b.b_flat and te_a = Flat.ends b.b_flat in
         for j = lo to hi - 1 do
           let tev = Array.unsafe_get te_a j in
           if tev > rts then begin
             Buf.push scr.m_ts (max rts (Array.unsafe_get ts_a j));
             Buf.push scr.m_te (min rte tev)
           end
         done
       end
       else
         for j = lo to hi - 1 do
           let tev = Flat.te b.b_flat j in
           if
             Flat.end_matches ctx.temporal ~rts ~rte tev
             && ctx.matches_residual fr (Tuple.fact b.b_tuples.(j))
           then begin
             Buf.push scr.m_ts (max rts (Flat.ts b.b_flat j));
             Buf.push scr.m_te (min rte tev)
           end
         done);
      let k = Buf.length scr.m_ts in
      if k = 0 then 1
      else if stage = `Wo then k
      else begin
        Buf.sort scr.m_ts Int.compare;
        Buf.sort scr.m_te Int.compare;
        let gaps = ref 0 and segments = ref 0 in
        let i = ref 0 (* next start *) and j = ref 0 (* next end *) in
        let active = ref 0 and pos = ref rts in
        while !j < k do
          let t =
            if !i < k && Buf.get scr.m_ts !i <= Buf.get scr.m_te !j then
              Buf.get scr.m_ts !i
            else Buf.get scr.m_te !j
          in
          if t > !pos then
            if !active > 0 then incr segments else incr gaps;
          while !i < k && Buf.get scr.m_ts !i = t do
            incr active;
            incr i
          done;
          while !j < k && Buf.get scr.m_te !j = t do
            decr active;
            incr j
          done;
          pos := t
        done;
        if rte > !pos then incr gaps;
        match stage with
        | `Wuon -> k + !gaps + !segments
        | `Wun -> !gaps + !segments
        | `Wuo | `Wo -> k + !gaps
      end

(* --- entry points ------------------------------------------------------ *)

let emit_of_stage ~sanitize : stage -> emit = function
  | `Wo -> { count_wo = true; build_wo = true; gaps = false; negs = false }
  | `Wuo -> { count_wo = true; build_wo = true; gaps = true; negs = false }
  | `Wuon -> { count_wo = true; build_wo = true; gaps = true; negs = true }
  | `Wun -> { count_wo = true; build_wo = sanitize; gaps = true; negs = true }

let invariant_stage : stage -> Invariant.stage = function
  | `Wo -> Invariant.Overlap
  | `Wuo -> Invariant.Wuo
  | `Wuon | `Wun -> Invariant.Wuon

let sweep ?env ?order ~emit ~theta ~out ~spanning r s =
  let ctx = build ?env ?order ~theta s in
  let scr = scratch () in
  List.iter
    (fun r_tuple -> group ctx scr emit ~out ~spanning r_tuple)
    (Relation.sorted_by_fact_start r)

let iter ?(stage = `Wuon) ?env ~theta r s f =
  let emit = emit_of_stage ~sanitize:false stage in
  sweep ?env ~emit ~theta ~out:f ~spanning:f r s

(* Under the sanitizer a pass that drops its overlapping windows builds
   them anyway, so the checker sees whole groups, and drops them after
   the check. *)
let checked ~sanitize ~stage ~theta ~drop_wo ws =
  if not sanitize then ws
  else begin
    let out = Vec.create () in
    Invariant.wrap ~stage:(invariant_stage stage) ~theta (Array.to_seq ws)
    |> Seq.iter (fun w ->
           if not (drop_wo && Window.kind w = Window.Overlapping) then Vec.push out w);
    Vec.contents out
  end

let windows ?(stage = `Wuon) ?(sanitize = false) ?env ~theta r s =
  let out = Vec.create () in
  let emit = emit_of_stage ~sanitize stage in
  sweep ?env ~emit ~theta ~out:(Vec.push out) ~spanning:(Vec.push out) r s;
  checked ~sanitize ~stage ~theta ~drop_wo:(stage = `Wun) (Vec.contents out)

let count ?(stage = `Wuon) ~theta r s =
  let ctx = build ~theta s in
  let scr = scratch () in
  List.fold_left
    (fun n r_tuple -> n + count_group ctx scr ~stage r_tuple)
    0 (Relation.tuples r)

(* Partners of one s group on equal intersection intervals: by the r
   fact, then the normalized r lineage, then the left pass's r group
   order. This fixes the disjunct order of each negating window's λs,
   hence the output lineage's text and its probability bits. *)
let partner_order a b =
  let c = Fact.compare (Tuple.fact a) (Tuple.fact b) in
  if c <> 0 then c
  else
    let c =
      Formula.compare
        (Formula.normalize (Tuple.lineage a))
        (Formula.normalize (Tuple.lineage b))
    in
    if c <> 0 then c else Tuple.compare_fact_start a b

let right_pass ~sanitize ~stage ?env ~theta r s ~gaps ~spanning =
  let negs = match stage with `Wun -> true | `Wuo -> false in
  let emit = { count_wo = false; build_wo = sanitize; gaps = true; negs } in
  sweep ?env ~order:partner_order ~emit ~theta:(Theta.swap theta) ~out:gaps
    ~spanning s r

let iter_right ?(stage = `Wun) ?env ~theta r s ~gaps ~spanning =
  right_pass ~sanitize:false ~stage ?env ~theta r s ~gaps ~spanning

let right ?(stage = `Wun) ?(sanitize = false) ?env ~theta r s =
  let gaps = Vec.create () and spanning = Vec.create () in
  right_pass ~sanitize ~stage ?env ~theta r s ~gaps:(Vec.push gaps)
    ~spanning:(Vec.push spanning);
  ( checked ~sanitize
      ~stage:(stage :> stage)
      ~theta:(Theta.swap theta) ~drop_wo:true (Vec.contents gaps),
    Vec.contents spanning )
