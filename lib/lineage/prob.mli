(** Probability computation for lineage formulas.

    Base-tuple variables are independent Bernoulli random variables; an
    environment maps each variable to its marginal probability. The output
    probability of a TP tuple is the probability that its lineage is
    true. *)

type env = Var.t -> float

exception Unbound_variable of Var.t
(** A lineage variable has no marginal probability in the environment —
    typically a derived relation joined without passing an explicit
    [env] covering its base variables. Raised lazily, at the first
    probability computation touching the variable. *)

exception Vanishing_evidence of { p_given : float; epsilon : float }
(** Raised by {!conditional} when the evidence probability falls below
    {!evidence_epsilon}: dividing by a (near-)zero weighted model count
    turns rounding noise into arbitrary quotients. *)

val evidence_epsilon : float
(** [1e-12] — the smallest evidence probability {!conditional} accepts. *)

val env_of_alist : (Var.t * float) list -> env
(** Lookup raising {!Unbound_variable} for unbound variables. *)

val exact : env -> Formula.t -> float
(** Exact probability via BDD-based weighted model counting. Worst-case
    exponential (the problem is #P-hard) but linear in BDD size. *)

val read_once : env -> Formula.t -> float option
(** Fast path: when no variable occurs twice in the formula (a read-once
    formula), the probability factorizes over the connectives:
    [P(∧) = ∏ P], [P(∨) = 1 − ∏ (1 − P)], [P(¬f) = 1 − P(f)].
    Returns [None] for formulas with repeated variables. Every window
    lineage produced from duplicate-free base relations is read-once. *)

val compute : env -> Formula.t -> float
(** {!read_once} when it applies, otherwise {!exact}. This is what the
    join operators call when the probability cache is off. Records the
    [prob_readonce_checks] and (on BDD fallback) [prob_bdd_fallbacks]
    counters in {!Tpdb_obs.Metrics}. *)

val factorize : env -> Formula.t -> float
(** The static safe-plan fast path: factorized evaluation over the
    connectives with {e no} repeated-variable check and {e no} BDD
    fallback — sound exactly for read-once formulas, where it returns
    bit-for-bit what {!read_once} returns. Callers must hold a proof of
    read-once-ness; the planner's static safe-plan classification
    ({!Tpdb_query.Analyze}) provides one for TP joins over
    duplicate-free base inputs with disjoint base relations per side.
    Under [TPDB_SANITIZE=1] the join operators cross-check these
    probabilities against {!compute}. Records
    [analysis_static_prob_evals]. *)

(** Memoized probability computation over hash-consed formulas.

    A cache keys probabilities on {!Formula.id} — hash-consing makes the
    id a sound proxy for the formula — so lineages repeated across sweep
    windows (e.g. the λr an outer join replays across gap windows, or an
    anti join re-deriving an outer join's WU/WN lineages under a shared
    env) are evaluated once. Misses delegate to {!compute}, so a cached
    probability is bit-for-bit the float the uncached path returns.

    Invalidation is by environment {e generation}: the first [compute]
    with a physically different [env] closure drops every memoized
    value. Pass the same closure (e.g. one [Relation.prob_env] result)
    across calls to share the cache between operators. Caches are
    single-domain; use {!Cache.domain} for the calling domain's
    long-lived instance (how [Nj] gets a per-worker cache with no locks
    on the hot path). *)
module Cache : sig
  type t

  type stats = { hits : int; misses : int; resets : int; entries : int }

  val create : unit -> t

  val domain : unit -> t
  (** The calling domain's cache (created on first use, lives as long as
      the domain). *)

  val compute : t -> env -> Formula.t -> float
  (** Memoized {!compute}. Also records [prob_cache_hits]/[misses]/
      [resets] counters and the [prob_cache_lookup_ns] distribution in
      {!Tpdb_obs.Metrics}. *)

  val compute_with :
    t -> env -> miss:(env -> Formula.t -> float) -> Formula.t -> float
  (** {!compute} with a caller-chosen miss path — how statically safe
      plans memoize {!Tpdb_lineage.Prob.factorize} results through the
      same per-domain cache. The caller must pass a [miss] that computes
      the same value {!compute} would (the cache does not key on it). *)

  val stats : t -> stats
  (** Lifetime totals for this cache instance; [entries] is the current
      generation's result count. *)
end

val conditional : env -> given:Formula.t -> Formula.t -> float
(** [conditional env ~given f] is P(f | given) = P(f ∧ given) / P(given),
    computed exactly on one shared BDD. Conditioning on observed evidence
    is the standard query refinement in probabilistic databases. Raises
    {!Vanishing_evidence} when the evidence probability is below
    {!evidence_epsilon} (in particular when it is exactly 0). *)

val monte_carlo : ?seed:int -> samples:int -> env -> Formula.t -> float
(** Monte-Carlo estimate: draws independent assignments from the
    marginals and reports the fraction satisfying the formula. The
    standard error is at most [0.5 / sqrt samples]; used as a scalable
    cross-check of {!exact} and for lineages whose BDDs blow up.
    Deterministic for a fixed [seed] (default 1). Raises
    [Invalid_argument] if [samples <= 0]. *)

val enumerate : env -> Formula.t -> float
(** Brute-force implementation: sums over all 2^n assignments. Used by the
    test suite to validate {!exact}; raises [Invalid_argument] for more
    than 20 variables. *)
