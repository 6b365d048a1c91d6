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
(** {!read_once} when it applies, otherwise {!exact}. Records the
    [prob_readonce_checks] and (on BDD fallback) [prob_bdd_fallbacks]
    counters in {!Tpdb_obs.Metrics}. Every join operator and TA price
    their output lineages through it; the oracle calls {!exact}. *)

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

(** Memoized {!compute}, keyed on {!Formula.id} — hash-consing makes the
    id a sound proxy for the formula — so a cached probability is
    bit-for-bit the float {!compute} returns. The first [compute] with a
    physically different [env] closure drops every memoized value.
    Caches are single-domain.

    No library code calls this module: output formation prices every
    lineage through {!compute}, because within one join a cold cache
    almost never hits and its lookups cost more than they save. It stays
    for the perf harness ([perfbench/tpdb_perf.ml]), which replays
    output lineages through it and reads {!Cache.stats} of the calling
    domain's instance around each query. No join fills that instance,
    so the harness's per-layer cache hit ratio reads 0 (its ratio
    helper maps no lookups to 0). The module can go when the harness
    stops replaying. *)
module Cache : sig
  type t

  type stats = { hits : int; misses : int; resets : int; entries : int }

  val create : unit -> t

  val domain : unit -> t
  (** The calling domain's cache (created on first use, lives as long as
      the domain). *)

  val compute : t -> env -> Formula.t -> float
  (** Memoized {!compute}. *)

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
