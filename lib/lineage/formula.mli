(** Lineage formulas: propositional formulas over base-tuple variables,
    hash-consed.

    Constructors are smart: [conj] and [disj] flatten nested connectives
    and apply identity/annihilator laws, so formulas built through this
    interface never contain [And []], [Or [x]] or a [True] inside a
    conjunction. Deeper (NP-hard) simplification is deliberately out of
    scope — probabilities are computed exactly via {!Bdd}.

    Every formula is interned in a per-domain unique table: structurally
    equal formulas built on the same domain are physically shared, so
    {!equal} is usually a pointer comparison, {!hash} is O(1), and
    {!vars}/{!size} are memoized per node. {!id} is unique process-wide
    and never reused, so a table keyed on it is keyed on the formula.
    Interned nodes are never reclaimed.

    The table is open addressing over two parallel arrays (structural
    hashes and nodes), probed by the ids of a node's children. Finding a
    node that is already interned allocates nothing in {!var}, {!neg},
    [&&&], [|||] and {!and_not}; {!conj} and {!disj} build only
    their flattened junct list.

    What is guaranteed: on one domain, two formulas built from the same
    children by the same connective are the same node, whichever
    constructor built them (so [a &&& b == conj [a; b]] and
    [and_not a b == conj [a; neg b]]); an id is drawn only when a node
    is new, so ids follow the order of first construction. Across
    domains only structure is shared: a formula interned on another
    domain is a valid child, but the same structure built on two domains
    may be two nodes. *)

type t

type view =
  | True
  | False
  | Var of Var.t
  | Not of t
  | And of t list  (** >= 2 juncts, none of them [And]/[True]/[False] *)
  | Or of t list  (** >= 2 juncts, none of them [Or]/[True]/[False] *)

val view : t -> view
(** The root node, for pattern matching. *)

val id : t -> int
(** Unique id, assigned at interning time; process-wide, never reused.
    Allocation-ordered, so not stable across runs — use {!compare} for
    any ordering that must be deterministic. *)

val hash : t -> int
(** O(1): precomputed structural hash. Equal formulas hash equal, even
    when interned on different domains. *)

val interned : unit -> int
(** Number of distinct formulas interned on the calling domain
    (diagnostics; constants excluded). *)

val true_ : t
val false_ : t
val var : Var.t -> t
val neg : t -> t
(** [neg] applies double-negation elimination and constant folding only. *)

val conj : t list -> t
val disj : t list -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

val and_not : t -> t -> t
(** [and_not a b] is [a ∧ ¬b] — the paper's [andNot] lineage-concatenation
    function used for negating windows. *)

val equal : t -> t -> bool
(** Structural equality — O(1) pointer comparison for formulas interned
    on the same domain, hash-guarded structural recursion otherwise. For
    equality up to commutativity compare {!normalize}d formulas. *)

val compare : t -> t -> int
(** Structural order, identical on every domain and across runs. *)

val normalize : t -> t
(** Sorts and de-duplicates the juncts of every connective, recursively.
    Two window lineages built from the same set of tuple variables in
    different orders normalize to the same formula. *)

val vars : t -> Var.t list
(** Distinct variables, sorted. Memoized per node. *)

val size : t -> int
(** Number of connective and variable nodes. Memoized per node. *)

val eval : (Var.t -> bool) -> t -> bool

val substitute : (Var.t -> t option) -> t -> t
(** Replaces variables for which the function returns [Some _]. *)

val to_string : t -> string
(** Paper notation: [a1 ∧ ¬(b3 ∨ b2)]. *)

val to_string_ascii : t -> string
(** ASCII notation accepted by {!of_string}: [a1 & !(b3 | b2)]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s bytes without allocating. *)

val add_to_buffer_ascii : Buffer.t -> t -> unit
(** Appends {!to_string_ascii}'s bytes without allocating. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> t
(** Parses the ASCII notation: variables as in {!Var.of_string}, [!] for
    negation, [&]/[|] for connectives (with the usual precedences:
    [!] > [&] > [|]), [T]/[F] for constants, parentheses. Raises
    [Invalid_argument] on syntax errors. *)
