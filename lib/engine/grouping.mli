(** Streaming grouping of sorted sequences.

    The window sanitizer consumes a window stream sorted by group (the
    spanning tuple of [r]) and checks one group at a time. [runs] detects
    maximal runs of adjacent equal-key elements without looking ahead more
    than one element, so the pipeline stays streaming at group
    granularity. *)

val runs : same:('a -> 'a -> bool) -> 'a Seq.t -> 'a list Seq.t
(** Maximal runs of consecutive elements pairwise related by [same]
    (compared to the run's first element). Elements keep their order;
    concatenating the output yields the input. *)

val map_runs :
  same:('a -> 'a -> bool) -> ('a list -> 'b list) -> 'a Seq.t -> 'b Seq.t
(** [map_runs ~same f] rewrites every run through [f] and re-flattens. *)
