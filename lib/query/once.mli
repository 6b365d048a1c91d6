(** A value computed at most once, on first use, from any domain.

    [Lazy.force] raises when two domains force the same suspension at
    once; a catalog snapshot's statistics are shared across the worker
    domains that plan over them, so their suspensions are forced under
    a mutex instead. *)

type 'a t

val make : (unit -> 'a) -> 'a t
val of_value : 'a -> 'a t

val force : 'a t -> 'a
(** Computes the value on the first call and returns it on every call;
    concurrent first calls wait for one computation. An exception
    raised by the computation is raised again by every call. *)

val is_computed : 'a t -> bool
(** Whether {!force} has run: a probe for tests of what stays lazy. *)
