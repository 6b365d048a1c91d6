(** ASCII timeline rendering, in the spirit of the paper's Fig. 2.

    One row per tuple or window: a ruler gives the time scale, [#] marks
    covered time points, and each row is annotated with its interval,
    lineages and (for windows) kind — [U]nmatched, [O]verlapping,
    [N]egating. Spans wider than [max_width] points are scaled down. *)

module Interval = Tpdb_interval.Interval
module Relation = Tpdb_relation.Relation

val relation : ?max_width:int -> Relation.t -> string
(** All tuples of a relation over its active domain. *)

val windows : ?max_width:int -> span:Interval.t -> Window.t list -> string
(** Window rows over a given span (normally the hull of both inputs). *)

val join_picture :
  ?max_width:int -> theta:Theta.t -> Relation.t -> Relation.t -> string
(** The full picture: both inputs' tuples, then every generalized window
    of [r] w.r.t. [s] (the flat pipeline's WUON stage: overlapping, then
    LAWAU's gaps and LAWAN's negating windows) — the machine-generated
    analogue of the paper's Fig. 2. *)
