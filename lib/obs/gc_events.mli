(** Minor collections of a stretch of code, read from the runtime's own
    event ring ([Runtime_events]).

    On OCaml 5 every minor collection stops all domains. Most are the
    ordinary kind (the allocating domain's minor heap is full); the ones
    counted in [forced_make_vect] are forced by [caml_make_vect]
    ([Array.make], [init], [map], [of_list], [of_seq], …) building an
    array of more than 256 words from an initial element that is itself
    still in the minor heap. The library builds no such array (see
    [Flat.Vec]); tests and benchmarks assert it with {!count}. *)

type counts = {
  minor : int;
      (** minor collections: the most any one domain took part in *)
  forced_make_vect : int;  (** of those, forced by [caml_make_vect] *)
  lost : int;  (** events the ring overwrote before they were read *)
}

val count : (unit -> 'a) -> 'a * counts
(** [count f] runs [f ()] and returns its result with the minor
    collections it ran, on every domain of the process. The first call
    starts the runtime's event ring, which stays on for the life of the
    process. Not re-entrant; [lost > 0] means the counts are low. *)
