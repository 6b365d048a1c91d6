(** The flat struct-of-arrays window pipeline: the join executor's one
    sweep engine.

    Computes, per group (one probe tuple), the overlapping windows plus —
    depending on [stage] — the unmatched gaps (LAWAU) and the negating
    constant-coverage segments (LAWAN) in one ascending event sweep over
    the group's match endpoints ({!Tpdb_engine.Flat}); the sweep's live
    set is an int buffer of match indices in arrival order. The probe
    kernel supports the full temporal component of θ: [`Overlap] and
    all 13 [`Allen] relations ({!Tpdb_engine.Flat.window_range}).

    Each stage's windows are exactly the paper's Table I window sets
    ({!Spec}). Within a group, windows come in the order of the paper's
    pipeline: by start, each gap before the overlapping window it
    precedes, a negating window after the overlapping windows it starts
    with; overlapping windows of equal interval by the [s] tuple
    ({!Tpdb_relation.Tuple.compare_fact_start}). The right side of an
    outer join is the same kernel over [Theta.swap theta] with [s] as
    the probe side.

    With [?env] (a statically safe plan) each build side carries its
    tuples' probabilities, [Prob.factorize env λ] of bare-variable
    lineages, and each window records its output lineage's probability
    ({!Window.p}), multiplied in the order [Prob.factorize] evaluates
    that lineage, so the float is bit-identical; windows with a partner
    lineage that is not a bare variable keep [nan].

    Scratch buffers are per-domain ([Domain.DLS]), so the parallel
    executor's partition sweeps each get their own. *)

module Relation = Tpdb_relation.Relation

type stage = [ `Wo | `Wuo | `Wuon | `Wun ]
(** How far to extend each group: overlapping/spanning-unmatched only
    ([`Wo], the conventional outer join), plus gap windows ([`Wuo]), plus
    negating windows ([`Wuon]). [`Wun] is [`Wuon] without its
    overlapping windows — the anti join's input: they are counted in
    {!Tpdb_obs.Metrics} but never built. *)

val iter :
  ?stage:stage ->
  ?env:Tpdb_lineage.Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  (Window.t -> unit) ->
  unit
(** [iter ~stage ~theta r s f] hands the windows of [r] against [s],
    grouped by [r] tuple, to [f] in stream order, each as soon as it is
    built. [stage] defaults to [`Wuon]. *)

val windows :
  ?stage:stage ->
  ?sanitize:bool ->
  ?env:Tpdb_lineage.Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Window.t array
(** The windows {!iter} hands out; with [~sanitize:true] they pass
    through {!Invariant.wrap} at the matching stage. *)

val iter_right :
  ?stage:[ `Wuo | `Wun ] ->
  ?env:Tpdb_lineage.Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  gaps:(Window.t -> unit) ->
  spanning:(Window.t -> unit) ->
  unit
(** The right side of the outer joins [r ⟖ s] and [r ⟗ s] (and of the
    union): one pass of the kernel over [Theta.swap theta] that probes
    with [s] and builds on [r]. The unmatched windows of the [s] tuples
    with a match — and, at [stage] [`Wun] (the default), their negating
    windows — go to [gaps], the spanning windows of those without one
    to [spanning], each grouped by [s] tuple. Overlapping windows are
    neither built nor counted (the left pass has them). A negating
    window's partners, which fix the disjunct order of its λs and so
    the output lineage's text and probability bits, come ordered by
    intersection interval, then [r] fact, then normalized [r] lineage,
    then {!Tpdb_relation.Tuple.compare_fact_start}. *)

val right :
  ?stage:[ `Wuo | `Wun ] ->
  ?sanitize:bool ->
  ?env:Tpdb_lineage.Prob.env ->
  theta:Theta.t ->
  Relation.t ->
  Relation.t ->
  Window.t array * Window.t array
(** {!iter_right}'s two streams; with [~sanitize:true] the first is
    checked at [stage]. *)

val count : ?stage:stage -> theta:Theta.t -> Relation.t -> Relation.t -> int
(** [count ~stage ~theta r s] is [Array.length (windows ~stage ~theta r
    s)] computed entirely on the flat endpoint buffers: no [Window.t]
    records, no lineage, no probe-order sort — the windows of each group
    are only {e counted} from one ascending event sweep over the match
    endpoints. This is the sweep core's raw throughput (the quantity the
    bench regression gate holds above a floor relative to TA's
    conventional outer join, {!Overlap.left}) and the fast path for
    count-only consumers. *)
